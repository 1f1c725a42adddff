package exec

import (
	"repro/internal/hpc"
	"repro/internal/isa"
)

// InsnRecord aggregates everything observed about one instruction of
// the monitored program: how often it retired, when it first did, and
// the HPC events attributed to it. The memory lines it touched or
// flushed are kept once for the whole trace (see Trace.Lines).
// Together these are the runtime information Section III-A of the paper
// collects via perf and Intel PT.
type InsnRecord struct {
	// Seen reports that the instruction retired or touched a data line;
	// FirstCycle is the cycle it first did. A record that was not seen
	// has no ExecCount, FirstCycle or lines, but may still carry HPC
	// events (say, a fetch miss of an instruction that only ran
	// transiently and touched no line).
	Seen       bool
	ExecCount  uint64
	FirstCycle uint64
	// HPC holds the HPC events attributed to the instruction.
	HPC hpc.Counts

	// lastMem and lastFlush are the lines the instruction last added to
	// the trace's line set as a load/store and as a flush, valid once
	// hasMem and hasFlush are set; a repeat touch of that line skips the
	// set.
	lastMem, lastFlush uint64
	hasMem, hasFlush   bool
}

// LineTouch is one distinct data line an instruction of the monitored
// program touched: read or written (architecturally or transiently),
// or flushed.
type LineTouch struct {
	// Slot is the instruction's index in the program's Insns.
	Slot int32
	// Flush reports a flush of the line rather than a load or store.
	Flush bool
	// Line is the line-aligned address.
	Line uint64
}

// EventKind tags entries of the chronological event log.
type EventKind uint8

// Event log entry kinds. They mirror the four trace hooks the modeling
// pipeline consumes — instruction retirement, memory-line touches,
// flush-line touches and HPC event firings. The baselines' cache-set
// trace and window samples are derived from the same events by a
// RunEvents sink (baseline.Recorder); the machine keeps neither.
const (
	EvRetire EventKind = iota
	EvMem
	EvFlush
	EvHPC
)

// Event is one entry of the chronological event log recorded when
// Config.RecordEvents is set, or one event handed to a Machine.RunEvents
// sink. Replaying a prefix (or any cycle slice) of the events through a
// TraceBuilder reconstructs the Trace state the
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
	// Insns is the per-instruction view, in program order: Insns[i]
	// belongs to the monitored program's Insns[i], whether or not it
	// ever executed.
	Insns []InsnRecord
	// Global holds the machine-wide HPC counters of the monitored
	// process: the sum of every record's HPC.
	Global hpc.Counts

	// Events is the chronological event log, populated only when the
	// machine ran with Config.RecordEvents (a Machine.RunEvents run hands
	// its events to the caller's sink and keeps no log). See Event for
	// the ordering contract.
	Events []Event
	// EventsTruncated reports that the log hit Config.MaxEvents and
	// stopped recording; a truncated log must not be replayed as if it
	// were complete.
	EventsTruncated bool

	Retired   uint64 // architecturally retired instructions
	Transient uint64 // speculatively executed (squashed) instructions
	Cycles    uint64 // total virtual cycles at the end of the run
	Halted    bool   // monitored process reached HLT

	// lines is the set of distinct lines the instructions touched; read
	// it through Lines.
	lines lineSet

	// prog is the monitored program; the hooks take an instruction's
	// index into prog.Insns (its slot) and read its PC from there.
	prog *isa.Program

	// recordEvents turns the event hooks on; sink then receives every
	// event until it returns an error, which sinkErr keeps and which
	// stops the run at the next step boundary.
	recordEvents bool
	sink         func(Event) error
	sinkErr      error
	maxEvents    int
}

// newTrace builds an empty trace of prog; a recordEvents trace logs its
// events into Events, capped at maxEvents.
func newTrace(prog *isa.Program, recordEvents bool, maxEvents int) *Trace {
	t := new(Trace)
	t.reset(prog, recordEvents, maxEvents)
	return t
}

// reset empties t into the trace newTrace builds, reusing the storage
// of its record slice and its line set. No line is carried into the
// next run, and neither are the event log, the counters and the sink
// with its error.
func (t *Trace) reset(prog *isa.Program, recordEvents bool, maxEvents int) {
	lines := t.lines
	lines.reset()
	*t = Trace{
		Insns:     resize(t.Insns, len(prog.Insns)),
		lines:     lines,
		prog:      prog,
		maxEvents: maxEvents,
	}
	if recordEvents {
		t.setSink(t.appendEvent)
	}
}

// setSink turns the event hooks on and routes every event to sink.
func (t *Trace) setSink(sink func(Event) error) {
	t.recordEvents = true
	t.sink = sink
}

// event hands one entry to the sink; after the sink has failed once,
// nothing more is delivered.
func (t *Trace) event(kind EventKind, cycle uint64, s int32, line uint64, e hpc.Event) {
	if !t.recordEvents || t.sinkErr != nil {
		return
	}
	t.sinkErr = t.sink(Event{Kind: kind, Cycle: cycle, PC: t.prog.Insns[s].Addr, Line: line, HPC: e})
}

// appendEvent is the Config.RecordEvents sink: it appends to the log
// until the cap, then flags the log truncated and drops the rest
// without stopping the run.
func (t *Trace) appendEvent(ev Event) error {
	if t.EventsTruncated {
		return nil
	}
	if t.maxEvents > 0 && len(t.Events) >= t.maxEvents {
		t.EventsTruncated = true
		return nil
	}
	t.Events = append(t.Events, ev)
	return nil
}

// touch returns slot s's record, marking it seen at cycle.
func (t *Trace) touch(s int32, cycle uint64) *InsnRecord {
	r := &t.Insns[s]
	if !r.Seen {
		r.Seen = true
		r.FirstCycle = cycle
	}
	return r
}

func (t *Trace) retire(s int32, cycle uint64) {
	t.touch(s, cycle).ExecCount++
	t.Retired++
	if t.recordEvents {
		t.event(EvRetire, cycle, s, 0, 0)
	}
}

func (t *Trace) memLine(s int32, lineAddr uint64, cycle uint64) {
	t.addLine(s, lineAddr, false, cycle)
	t.event(EvMem, cycle, s, lineAddr, 0)
}

func (t *Trace) flushLine(s int32, lineAddr uint64, cycle uint64) {
	t.addLine(s, lineAddr, true, cycle)
	t.event(EvFlush, cycle, s, lineAddr, 0)
}

// addLine records slot s's touch of line, a flush or a load/store, at
// cycle: the record is marked seen, and the touch joins the line set
// unless it repeats the record's last line of that kind. It is the one
// place a trace grows per distinct line.
func (t *Trace) addLine(s int32, line uint64, flush bool, cycle uint64) {
	r := t.touch(s, cycle)
	last, has := &r.lastMem, &r.hasMem
	if flush {
		last, has = &r.lastFlush, &r.hasFlush
	}
	if *has && *last == line {
		return
	}
	*last, *has = line, true
	t.lines.add(LineTouch{Slot: s, Flush: flush, Line: line})
}

// Lines returns the distinct lines the instructions in slots [lo, hi)
// of the program touched, 0 <= lo <= hi <= len(Insns), sorted by slot,
// then loads and stores before flushes, then by line. The slice belongs
// to the trace: it is valid until the trace is reset, and callers must
// not modify it. Lines on the trace a finished run or TraceBuilder.Trace
// returned only reads, so concurrent calls are safe; on a trace still
// growing (a run whose sink panicked) it sorts first.
func (t *Trace) Lines(lo, hi int) []LineTouch {
	l := &t.lines
	l.sort(len(t.Insns))
	i, j := l.start[lo], l.start[hi]
	return l.sorted[i:j:j]
}

// fire records an HPC event in slot s's counters and the global
// counters. An event past the Table I range is dropped.
func (t *Trace) fire(e hpc.Event, s int32, cycle uint64) {
	if e >= hpc.NumEvents {
		return
	}
	t.Insns[s].HPC[e]++
	t.Global[e]++
	t.event(EvHPC, cycle, s, 0, e)
}

// TraceBuilder reconstructs a Trace by replaying entries of an event
// log through the same hooks the machine drives, into the same
// per-instruction layout, so the rebuilt Insns and Global are
// bit-identical to what a live run restricted to those events would
// have produced. The sliding-window detector feeds it the events of one
// window to obtain a modellable per-window trace, and Resets one
// builder between windows.
//
// The rebuilt trace covers exactly what the modeling pipeline
// (model.BuildFromTrace) consumes: the per-instruction records, the
// global HPC counters, the retire count and the cycle count. The
// Transient total and the Halted flag of the original run are not
// reconstructed; modeling reads neither.
type TraceBuilder struct {
	t *Trace
	// last is the slot the previous event resolved to.
	last int32
}

// NewTraceBuilder returns an empty builder for the log of a run of
// prog.
func NewTraceBuilder(prog *isa.Program) *TraceBuilder {
	return &TraceBuilder{t: newTrace(prog, false, 0)}
}

// Reset empties the builder for the next slice of the log. It keeps the
// record slice and the line set's storage, so a builder replaying many
// windows of one program allocates only when a window touches more
// lines than every earlier one. The Trace returned by the previous
// Trace call is invalid after Reset.
func (b *TraceBuilder) Reset() {
	b.t.reset(b.t.prog, false, 0)
}

// slot resolves pc to its instruction's index in the program, or -1
// when pc is not the address of one. Events follow the program's flow:
// an instruction's events share its PC, and the next instruction is
// most often the one after it, so both are tried before the search.
func (b *TraceBuilder) slot(pc uint64) int32 {
	insns := b.t.prog.Insns
	if s := b.last; s < int32(len(insns)) && insns[s].Addr == pc {
		return s
	}
	if s := b.last + 1; s < int32(len(insns)) && insns[s].Addr == pc {
		b.last = s
		return s
	}
	i, ok := b.t.prog.IndexOf(pc)
	if !ok {
		return -1
	}
	b.last = int32(i)
	return b.last
}

// Apply replays one event. Events must be applied in log order (cycles
// nondecreasing); Apply does not re-sort. An event whose PC is not an
// instruction of the builder's program changes nothing: a live run of
// that program never emits one.
func (b *TraceBuilder) Apply(ev Event) {
	s := b.slot(ev.PC)
	if s < 0 {
		return
	}
	switch ev.Kind {
	case EvRetire:
		b.t.retire(s, ev.Cycle)
	case EvMem:
		b.t.memLine(s, ev.Line, ev.Cycle)
	case EvFlush:
		b.t.flushLine(s, ev.Line, ev.Cycle)
	case EvHPC:
		b.t.fire(ev.HPC, s, ev.Cycle)
	}
}

// Trace finalizes and returns the reconstructed trace. cycles becomes
// Trace.Cycles (use the end of the replayed interval). The trace is the
// builder's own: it stays valid until the next Reset, and nothing may
// be applied before that Reset.
func (b *TraceBuilder) Trace(cycles uint64) *Trace {
	b.t.Cycles = cycles
	b.t.lines.sort(len(b.t.Insns))
	return b.t
}
