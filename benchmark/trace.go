package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one operation share Op; Parent is
// the enclosing span's ID (-1 for an operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
}

// opSpan names the root span of every traced operation.
const opSpan = "op"

// tracer keeps spans in memory until the run ends. Allocation counts are
// read outside each span's clock, so they cost time between spans, not
// inside them. Not safe for concurrent use: the traced run is a single
// client.
type tracer struct {
	t0    time.Time
	ac    *allocCounter
	spans []span
	stack []int
	a0    []uint64
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ac: newAllocCounter(), op: -1} }

// beginOp opens a new operation's root span.
func (t *tracer) beginOp() {
	t.op++
	t.begin(opSpan)
}

func (t *tracer) begin(name string) {
	a := t.ac.read()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.stack = append(t.stack, id)
	t.a0 = append(t.a0, a)
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := time.Since(t.t0).Nanoseconds()
	n := len(t.stack) - 1
	id, a0 := t.stack[n], t.a0[n]
	t.stack, t.a0 = t.stack[:n], t.a0[:n]
	t.spans[id].End = now
	t.spans[id].Allocs = t.ac.read() - a0
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerAgg totals one layer's spans.
type layerAgg struct {
	calls  int
	total  time.Duration // summed span durations
	self   time.Duration // summed durations minus time covered by child spans
	allocs uint64
}

// spanSummary is the per-layer view of a set of traced operations.
type spanSummary struct {
	ops          int
	opTotal      time.Duration // summed root-span durations
	opSelf       time.Duration // root time no layer span covers
	layers       map[string]*layerAgg
	firstOpTotal time.Duration // the first traced pass alone
	firstPassOps int
}

// summarizeSpans derives self times: a span's self time is its duration
// minus the durations of its direct children (children of one span never
// overlap: the benchmark calls layers one after another).
func summarizeSpans(spans []span, firstPassOps int) spanSummary {
	s := spanSummary{layers: map[string]*layerAgg{}, firstPassOps: firstPassOps}
	byID := make(map[int]int, len(spans))
	child := make([]time.Duration, len(spans))
	for i, sp := range spans {
		byID[sp.ID] = i
	}
	for _, sp := range spans {
		if j, ok := byID[sp.Parent]; ok {
			child[j] += time.Duration(sp.End - sp.Start)
		}
	}
	firstOp := -1
	for i, sp := range spans {
		if firstOp < 0 {
			firstOp = sp.Op
		}
		dur := time.Duration(sp.End - sp.Start)
		self := dur - child[i]
		if sp.Name == opSpan {
			s.ops++
			s.opTotal += dur
			s.opSelf += self
			if sp.Op-firstOp < firstPassOps {
				s.firstOpTotal += dur
			}
			continue
		}
		a := s.layers[sp.Name]
		if a == nil {
			a = &layerAgg{}
			s.layers[sp.Name] = a
		}
		a.calls++
		a.total += dur
		a.self += self
		a.allocs += sp.Allocs
	}
	return s
}

// perOp is a layer's total span time per traced operation, in ms.
func (s spanSummary) perOp(name string) float64 {
	a := s.layers[name]
	if a == nil || s.ops == 0 {
		return 0
	}
	return ms(a.total) / float64(s.ops)
}

// allocsPerOp is a layer's allocations per traced operation.
func (s spanSummary) allocsPerOp(names ...string) float64 {
	if s.ops == 0 {
		return 0
	}
	var n uint64
	for _, name := range names {
		if a := s.layers[name]; a != nil {
			n += a.allocs
		}
	}
	return float64(n) / float64(s.ops)
}

// writeTable prints one row per layer: calls and self time per
// operation and the self time's share of the mean operation.
func (s spanSummary) writeTable(w io.Writer, workload string) {
	if s.ops == 0 {
		return
	}
	names := make([]string, 0, len(s.layers))
	for n := range s.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.layers[names[i]].self > s.layers[names[j]].self })
	fmt.Fprintf(w, "%-12s %-24s %8s %12s %8s\n", "workload", "layer", "calls/op", "self ms/op", "share")
	row := func(name string, calls float64, self time.Duration) {
		fmt.Fprintf(w, "%-12s %-24s %8.2f %12.4f %7.1f%%\n", workload, name, calls,
			ms(self)/float64(s.ops), 100*float64(self)/float64(s.opTotal))
	}
	for _, n := range names {
		a := s.layers[n]
		row(n, float64(a.calls)/float64(s.ops), a.self)
	}
	row("(unattributed)", 1, s.opSelf)
	fmt.Fprintf(w, "%-12s %-24s %8d %12.4f %8s\n", workload, "(op total)", s.ops, ms(s.opTotal)/float64(s.ops), "")
}
