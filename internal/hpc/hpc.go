// Package hpc models the hardware performance counters of Table I of the
// paper. The execution engine fires events as it accesses the cache
// hierarchy; the execution trace accumulates them in Counts, globally
// and per instruction, which is exactly the artefact the paper collects
// with perf-intel-pt and later maps onto basic blocks.
package hpc

import "fmt"

// Event enumerates the HPC events of Table I. Timestamp is listed for
// completeness but is excluded from the per-BB HPC value sum, matching
// the paper ("the sum of the selected 11 HPC events (excluding the
// timestamp)").
type Event uint8

// Table I events.
const (
	L1DLoadMiss    Event = iota // L1 Data Cache Load Miss
	L1DLoadHit                  // L1 Data Cache Load Hit
	L1DStoreHit                 // L1 Data Cache Store Hit
	L1ILoadMiss                 // L1 Instruction Cache Load Miss
	LLCLoadMiss                 // LLC Load Miss
	LLCLoadHit                  // LLC Load Hit
	LLCStoreMiss                // LLC Store Miss
	LLCStoreHit                 // LLC Store Hit
	BranchMiss                  // Branch Miss (mispredicted branch)
	BranchLoadMiss              // Branch Load Miss (BTB miss on a taken branch)
	CacheMiss                   // Cache Miss (any-level miss reaching memory)
	Timestamp                   // Timestamp (virtual cycle counter reads)
	NumEvents
)

// NumCounted is the number of events included in a BB's HPC value
// (all events except Timestamp).
const NumCounted = int(NumEvents) - 1

var eventNames = [NumEvents]string{
	L1DLoadMiss:    "l1d-load-miss",
	L1DLoadHit:     "l1d-load-hit",
	L1DStoreHit:    "l1d-store-hit",
	L1ILoadMiss:    "l1i-load-miss",
	LLCLoadMiss:    "llc-load-miss",
	LLCLoadHit:     "llc-load-hit",
	LLCStoreMiss:   "llc-store-miss",
	LLCStoreHit:    "llc-store-hit",
	BranchMiss:     "branch-miss",
	BranchLoadMiss: "branch-load-miss",
	CacheMiss:      "cache-miss",
	Timestamp:      "timestamp",
}

// String returns the perf-style event name.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Counted reports whether the event contributes to a BB's HPC value.
func (e Event) Counted() bool { return e < NumEvents && e != Timestamp }

// Counts is one fixed-size counter vector over all Table I events.
type Counts [NumEvents]uint64

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	for i := range c {
		c[i] += other[i]
	}
}

// Sum returns the paper's "HPC value": the sum of the 11 counted events.
func (c Counts) Sum() uint64 {
	var s uint64
	for e := Event(0); e < NumEvents; e++ {
		if e.Counted() {
			s += c[e]
		}
	}
	return s
}

// Total returns the sum over every event including Timestamp.
func (c Counts) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}
