package exec

import (
	"sort"

	"repro/internal/hpc"
)

// AddrRecord aggregates everything observed about one instruction
// address of the monitored process: how often it retired, when it first
// did, and which memory lines it touched or flushed. Together with the
// HPC bank this is the runtime information Section III-A of the paper
// collects via perf and Intel PT.
type AddrRecord struct {
	ExecCount  uint64
	FirstCycle uint64
	// MemLines holds line-aligned data addresses read or written by the
	// instruction (architecturally or transiently). It is nil when the
	// instruction never touched data memory.
	MemLines map[uint64]struct{}
	// FlushLines holds line-aligned addresses the instruction flushed;
	// nil when it flushed nothing.
	FlushLines map[uint64]struct{}
}

// SetAccessKind tags entries of the cache-set trace.
type SetAccessKind uint8

// Cache-set trace entry kinds.
const (
	SetRead SetAccessKind = iota
	SetWrite
	SetFlush
)

// SetAccess is one entry of the chronological cache-set access trace the
// SCADET baseline consumes.
type SetAccess struct {
	Cycle uint64
	Set   int    // LLC set index
	Line  uint64 // line-aligned address
	Kind  SetAccessKind
	PC    uint64
}

// WindowSample is one fixed-width time window of HPC activity; the ML
// baselines build their feature vectors from sequences of these.
type WindowSample struct {
	StartCycle uint64
	Counts     hpc.Counts
}

// EventKind tags entries of the chronological event log.
type EventKind uint8

// Event log entry kinds. They mirror the four trace hooks the modeling
// pipeline consumes — instruction retirement, memory-line touches,
// flush-line touches and HPC event firings. The cache-set trace is not
// part of the log: it exists for the SCADET baseline only and has its
// own chronological record (SetTrace).
const (
	EvRetire EventKind = iota
	EvMem
	EvFlush
	EvHPC
)

// Event is one entry of the chronological event log recorded when
// Config.RecordEvents is set. Replaying a prefix (or any cycle slice) of
// the log through a TraceBuilder reconstructs the Trace state the
// modeling pipeline would have seen at that point — the mechanism the
// sliding-window detector (internal/window) uses to model mid-trace.
//
// Ordering contract: Cycle is NONDECREASING in log order — the machine's
// virtual clock never runs backwards — but duplicates are possible.
// Overlapped latencies are integer-divided (fetch latency /4, transient
// load latency /2) and can contribute zero cycles, so several
// consecutive events may share one Cycle value. Consumers slicing the
// log by time must therefore use half-open cycle intervals
// [start, end) and must never assume strict monotonicity.
// TestEventLogOrdering pins this contract.
type Event struct {
	Kind  EventKind
	Cycle uint64
	PC    uint64
	Line  uint64    // line-aligned address (EvMem, EvFlush)
	HPC   hpc.Event // fired counter (EvHPC)
}

// Trace is the complete runtime record of the monitored process.
type Trace struct {
	Bank     *hpc.Bank
	ByAddr   map[uint64]*AddrRecord
	SetTrace []SetAccess
	Windows  []WindowSample

	// Events is the chronological event log, populated only when the
	// machine ran with Config.RecordEvents. See Event for the ordering
	// contract.
	Events []Event
	// EventsTruncated reports that the log hit Config.MaxEvents and
	// stopped recording; a truncated log must not be replayed as if it
	// were complete.
	EventsTruncated bool

	Retired     uint64 // architecturally retired instructions
	Transient   uint64 // speculatively executed (squashed) instructions
	Cycles      uint64 // total virtual cycles at the end of the run
	Halted      bool   // monitored process reached HLT
	WindowWidth uint64

	// The per-instruction state accumulates in slot-indexed slices while
	// the trace is recorded: pcs[s] is the address of slot s and st[s]
	// its state. materialize turns them into ByAddr and Bank once.
	pcs    []uint64
	st     []slotState
	global hpc.Counts

	maxSetTrace  int
	curWindow    WindowSample
	recordEvents bool
	maxEvents    int
}

// slotState is the running state of one instruction slot: its record,
// its HPC counters, and the line last inserted into each of the
// record's line sets (a repeat touch of that line skips the set).
type slotState struct {
	rec       AddrRecord
	counts    hpc.Counts
	lastMem   uint64
	lastFlush uint64
	live      bool // rec exists: the slot retired or touched a line
}

// newTrace builds an empty trace over the instruction addresses pcs
// (slot s is pcs[s]) with the given sampling parameters.
func newTrace(pcs []uint64, windowWidth uint64, maxSetTrace int, recordEvents bool, maxEvents int) *Trace {
	if windowWidth == 0 {
		windowWidth = 2048
	}
	return &Trace{
		pcs:          pcs,
		st:           make([]slotState, len(pcs)),
		WindowWidth:  windowWidth,
		maxSetTrace:  maxSetTrace,
		recordEvents: recordEvents,
		maxEvents:    maxEvents,
	}
}

// event appends one entry to the chronological log, honouring the cap.
func (t *Trace) event(kind EventKind, cycle uint64, s int32, line uint64, e hpc.Event) {
	if !t.recordEvents || t.EventsTruncated {
		return
	}
	if t.maxEvents > 0 && len(t.Events) >= t.maxEvents {
		t.EventsTruncated = true
		return
	}
	t.Events = append(t.Events, Event{Kind: kind, Cycle: cycle, PC: t.pcs[s], Line: line, HPC: e})
}

// touch returns slot s's state, creating its record at cycle.
func (t *Trace) touch(s int32, cycle uint64) *slotState {
	st := &t.st[s]
	if !st.live {
		st.live = true
		st.rec.FirstCycle = cycle
	}
	return st
}

func (t *Trace) retire(s int32, cycle uint64) {
	t.touch(s, cycle).rec.ExecCount++
	t.Retired++
	t.event(EvRetire, cycle, s, 0, 0)
}

func (t *Trace) memLine(s int32, lineAddr uint64, cycle uint64) {
	st := t.touch(s, cycle)
	addLine(&st.rec.MemLines, &st.lastMem, lineAddr)
	t.event(EvMem, cycle, s, lineAddr, 0)
}

func (t *Trace) flushLine(s int32, lineAddr uint64, cycle uint64) {
	st := t.touch(s, cycle)
	addLine(&st.rec.FlushLines, &st.lastFlush, lineAddr)
	t.event(EvFlush, cycle, s, lineAddr, 0)
}

// addLine inserts line into *set, creating the set on first use. last
// holds the line inserted previously; repeating it skips the map.
func addLine(set *map[uint64]struct{}, last *uint64, line uint64) {
	if *set == nil {
		*set = map[uint64]struct{}{line: {}}
	} else if line != *last {
		(*set)[line] = struct{}{}
	}
	*last = line
}

func (t *Trace) setAccess(cycle uint64, set int, line uint64, kind SetAccessKind, s int32) {
	if len(t.SetTrace) >= t.maxSetTrace { // a negative cap records nothing
		return
	}
	t.SetTrace = append(t.SetTrace, SetAccess{Cycle: cycle, Set: set, Line: line, Kind: kind, PC: t.pcs[s]})
}

// fire records an HPC event in slot s's counters, the global counters
// and the current window.
func (t *Trace) fire(e hpc.Event, s int32, cycle uint64) {
	if e >= hpc.NumEvents {
		return
	}
	t.st[s].counts[e]++
	t.global[e]++
	t.curWindow.Counts[e]++
	t.event(EvHPC, cycle, s, 0, e)
}

// tickWindows advances window sampling to the given cycle.
func (t *Trace) tickWindows(cycle uint64) {
	for cycle >= t.curWindow.StartCycle+t.WindowWidth {
		t.Windows = append(t.Windows, t.curWindow)
		t.curWindow = WindowSample{StartCycle: t.curWindow.StartCycle + t.WindowWidth}
	}
}

// finish flushes the trailing partial window and materializes the
// per-address views.
func (t *Trace) finish(cycle uint64) {
	t.Cycles = cycle
	if t.curWindow.Counts.Total() > 0 {
		t.Windows = append(t.Windows, t.curWindow)
	}
	t.materialize()
}

// materialize builds ByAddr and Bank from the slot state. Both point
// into the slot slice rather than copying it: a record exists for every
// slot that retired or touched a line, a bank entry for every slot with
// at least one event.
func (t *Trace) materialize() {
	recs, banked := 0, 0
	for i := range t.st {
		if t.st[i].live {
			recs++
		}
		if t.st[i].counts != (hpc.Counts{}) {
			banked++
		}
	}
	t.ByAddr = make(map[uint64]*AddrRecord, recs)
	byAddr := make(map[uint64]*hpc.Counts, banked)
	for i := range t.st {
		st := &t.st[i]
		if st.live {
			t.ByAddr[t.pcs[i]] = &st.rec
		}
		if st.counts != (hpc.Counts{}) {
			byAddr[t.pcs[i]] = &st.counts
		}
	}
	t.Bank = hpc.BankOf(t.global, byAddr)
}

// Addrs returns every recorded instruction address in ascending order.
func (t *Trace) Addrs() []uint64 {
	out := make([]uint64, 0, len(t.ByAddr))
	for a := range t.ByAddr {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TraceBuilder reconstructs a Trace by replaying entries of an event
// log through the same hooks the machine drives, so the rebuilt
// Bank/ByAddr state is bit-identical to what a live run restricted to
// those events would have produced. The sliding-window detector feeds
// it the events of one window to obtain a modellable per-window trace.
//
// The rebuilt trace covers exactly what the modeling pipeline
// (model.BuildFromTrace) consumes: the HPC bank, the per-address
// records and the cycle count. SetTrace, Windows and the
// Retired/Transient totals of the original run are NOT reconstructed —
// they feed the baselines, not CST-BBS modeling.
type TraceBuilder struct {
	t *Trace
	// slotOf assigns slots to addresses in first-seen order; lastPC and
	// lastSlot memoize the previous resolution (a retire and its memory
	// and HPC events share one PC).
	slotOf   map[uint64]int32
	lastPC   uint64
	lastSlot int32
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder {
	return &TraceBuilder{t: newTrace(nil, 0, 0, false, 0), slotOf: make(map[uint64]int32), lastSlot: -1}
}

// slot resolves pc to its slot, adding one on first sight.
func (b *TraceBuilder) slot(pc uint64) int32 {
	if b.lastSlot >= 0 && pc == b.lastPC {
		return b.lastSlot
	}
	s, ok := b.slotOf[pc]
	if !ok {
		s = int32(len(b.t.pcs))
		b.slotOf[pc] = s
		b.t.pcs = append(b.t.pcs, pc)
		b.t.st = append(b.t.st, slotState{})
	}
	b.lastPC, b.lastSlot = pc, s
	return s
}

// Apply replays one event. Events must be applied in log order (cycles
// nondecreasing); Apply does not re-sort.
func (b *TraceBuilder) Apply(ev Event) {
	switch ev.Kind {
	case EvRetire:
		b.t.retire(b.slot(ev.PC), ev.Cycle)
	case EvMem:
		b.t.memLine(b.slot(ev.PC), ev.Line, ev.Cycle)
	case EvFlush:
		b.t.flushLine(b.slot(ev.PC), ev.Line, ev.Cycle)
	case EvHPC:
		b.t.fire(ev.HPC, b.slot(ev.PC), ev.Cycle)
	}
}

// Trace finalizes and returns the reconstructed trace. cycles becomes
// Trace.Cycles (use the end of the replayed interval). The builder must
// not be reused afterwards.
func (b *TraceBuilder) Trace(cycles uint64) *Trace {
	b.t.Cycles = cycles
	b.t.materialize()
	return b.t
}

// MemLinesOf returns the sorted accessed (and flushed) line addresses of
// the instruction at pc. Flushed lines are included because the paper's
// overlap analysis collects "accessed memory addresses (including
// flushed addresses)".
func (t *Trace) MemLinesOf(pc uint64) []uint64 {
	r := t.ByAddr[pc]
	if r == nil {
		return nil
	}
	out := make([]uint64, 0, len(r.MemLines)+len(r.FlushLines))
	for a := range r.MemLines {
		out = append(out, a)
	}
	for a := range r.FlushLines {
		if _, dup := r.MemLines[a]; !dup {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
