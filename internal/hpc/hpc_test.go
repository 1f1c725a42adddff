package hpc

import (
	"testing"
	"testing/quick"
)

func TestEventNames(t *testing.T) {
	if L1DLoadMiss.String() != "l1d-load-miss" {
		t.Errorf("name = %q", L1DLoadMiss.String())
	}
	if Timestamp.String() != "timestamp" {
		t.Errorf("name = %q", Timestamp.String())
	}
	if Event(99).String() == "" {
		t.Error("unknown event must render")
	}
	// Every defined event has a distinct non-empty name.
	seen := map[string]bool{}
	for e := Event(0); e < NumEvents; e++ {
		n := e.String()
		if n == "" || seen[n] {
			t.Errorf("event %d name %q empty or duplicated", e, n)
		}
		seen[n] = true
	}
}

func TestTableIHasTwelveEvents(t *testing.T) {
	// Table I: 11 counted events + timestamp.
	if NumEvents != 12 {
		t.Errorf("NumEvents = %d, want 12", NumEvents)
	}
	if NumCounted != 11 {
		t.Errorf("NumCounted = %d, want 11", NumCounted)
	}
}

func TestCountedExcludesTimestamp(t *testing.T) {
	if Timestamp.Counted() {
		t.Error("timestamp must not be counted")
	}
	n := 0
	for e := Event(0); e < NumEvents; e++ {
		if e.Counted() {
			n++
		}
	}
	if n != NumCounted {
		t.Errorf("counted events = %d, want %d", n, NumCounted)
	}
	if Event(50).Counted() {
		t.Error("out-of-range events are not counted")
	}
}

func TestCountsSumAndTotal(t *testing.T) {
	var c Counts
	c[L1DLoadMiss] = 3
	c[LLCLoadHit] = 2
	c[Timestamp] = 100
	if c.Sum() != 5 {
		t.Errorf("Sum = %d, want 5 (timestamp excluded)", c.Sum())
	}
	if c.Total() != 105 {
		t.Errorf("Total = %d, want 105", c.Total())
	}
	var d Counts
	d[L1DLoadMiss] = 1
	c.Add(d)
	if c[L1DLoadMiss] != 4 {
		t.Errorf("Add failed: %d", c[L1DLoadMiss])
	}
}

func TestBankFireAndAttribution(t *testing.T) {
	b := NewBank()
	b.Fire(L1DLoadMiss, 0x100)
	b.Fire(L1DLoadMiss, 0x100)
	b.Fire(LLCLoadHit, 0x200)
	b.FireN(BranchMiss, 0x100, 5)

	if g := b.Global(); g[L1DLoadMiss] != 2 || g[LLCLoadHit] != 1 || g[BranchMiss] != 5 {
		t.Errorf("global = %+v", g)
	}
	if at := b.At(0x100); at[L1DLoadMiss] != 2 || at[BranchMiss] != 5 {
		t.Errorf("at 0x100 = %+v", at)
	}
	if at := b.At(0x999); at.Total() != 0 {
		t.Error("unattributed address must be zero")
	}
	if len(b.Addrs()) != 2 {
		t.Errorf("addrs = %v", b.Addrs())
	}
}

func TestBankIgnoresInvalidEvent(t *testing.T) {
	b := NewBank()
	b.Fire(Event(200), 0x1)
	if b.Global().Total() != 0 {
		t.Error("invalid event must be ignored")
	}
}

func TestHPCValueByAddr(t *testing.T) {
	b := NewBank()
	b.Fire(L1DLoadHit, 0x10)
	b.Fire(Timestamp, 0x20) // timestamp-only address must not appear
	if got := b.At(0x10).Sum(); got != 1 {
		t.Errorf("HPC value at 0x10 = %d, want 1", got)
	}
	if got := b.At(0x20).Sum(); got != 0 {
		t.Errorf("timestamp-only address has HPC value %d, want 0", got)
	}
}

func TestBankReset(t *testing.T) {
	b := NewBank()
	b.Fire(CacheMiss, 0x1)
	b.Reset()
	if b.Global().Total() != 0 || len(b.Addrs()) != 0 {
		t.Error("reset incomplete")
	}
}

// Property: global counters always equal the sum of per-address counters.
func TestBankConsistency(t *testing.T) {
	f := func(events []uint8, addrs []uint8) bool {
		b := NewBank()
		n := len(events)
		if len(addrs) < n {
			n = len(addrs)
		}
		for i := 0; i < n; i++ {
			b.Fire(Event(events[i]%uint8(NumEvents)), uint64(addrs[i]))
		}
		var sum Counts
		for _, a := range b.Addrs() {
			sum.Add(b.At(a))
		}
		return sum == b.Global()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
