package exec_test

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/exec"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// runAllocBudget is the allocation budget of one NewMachine + Run of
// FR-IAIK with the default configuration on a machine built from
// scratch: the machine, the cache hierarchy, the decoded programs,
// memory pages and the trace with its line set. Measured at 29.
const runAllocBudget = 30

// reusedRunAllocBudget is the budget of the same simulation on a
// released machine, the one model builds, window.Watch and the trigger
// explorer take: the machine, its pages, records and line set are all
// reused, so nothing is allocated.
const reusedRunAllocBudget = 0

// TestRunAllocs pins the heap allocations of one simulation. The count
// is deterministic; a change that brings back a per-event or
// per-instruction allocation fails here before it shows as latency.
// Lower the budget when a change removes allocations.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	cfg := exec.DefaultConfig()
	got := testing.AllocsPerRun(10, func() {
		m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
	})
	t.Logf("%.0f allocs per run (budget %d)", got, runAllocBudget)
	if got > runAllocBudget {
		t.Errorf("%.0f allocs per NewMachine + Run, budget %d", got, runAllocBudget)
	}
}

// TestReusedRunAllocs pins the heap allocations of one NewMachine + Run
// + Release with a warm free list: the machine, its hierarchy, pages,
// slot tables, record slice and line set are all reused.
func TestReusedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	cfg := exec.DefaultConfig()
	got := testing.AllocsPerRun(10, func() {
		m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		m.Release()
	})
	t.Logf("%.0f allocs per reused run (budget %d)", got, reusedRunAllocBudget)
	if got > reusedRunAllocBudget {
		t.Errorf("%.0f allocs per NewMachine + Run + Release, budget %d", got, reusedRunAllocBudget)
	}
}
