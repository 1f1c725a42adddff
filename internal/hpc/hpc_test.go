package hpc

import "testing"

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
