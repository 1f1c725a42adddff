package exec_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/exec"
)

// TestConcurrentMachinesShareProgram runs two machines on one shared
// *isa.Program at once, the way concurrent classifications of the same
// PoC do. Machine construction validates the program and execution
// reads it; neither may write to it, so under -race this must stay
// silent, and both runs must produce the same trace.
func TestConcurrentMachinesShareProgram(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	var wg sync.WaitGroup
	traces := make([]*exec.Trace, 2)
	errs := make([]error, 2)
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
				if err != nil {
					errs[i] = err
					return
				}
				traces[i] = m.Run()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(traces[0].Insns, traces[1].Insns) || !sameLines(traces[0], traces[1]) || traces[0].Cycles != traces[1].Cycles {
		t.Fatal("concurrent runs of one program produced different traces")
	}
}
