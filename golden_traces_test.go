package scaguard

// The golden traces test pins the complete execution record of a fixed
// program corpus: per-instruction records (with their memory and flush
// line sets), the HPC counts per instruction and globally, the run
// totals, the chronological event log, and the cache-set trace and HPC
// windows the baselines' Recorder derives from that log. It is
// the bit-identity contract of the simulator itself, one layer below
// the verdict goldens: a faster exec/cache implementation must
// reproduce every field exactly, not only the final verdicts.
//
// Regenerate after an intentional simulator change with:
//
//	go test -run Golden -update .

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"reflect"
	"testing"

	"repro/internal/attacks"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/hpc"
	"repro/internal/isa"
)

const goldenTracesPath = "testdata/golden_traces.json"

// goldenTrace is the fingerprint of one run: the scalar totals verbatim
// and one SHA-256 digest per trace component, so a mismatch names the
// component that diverged.
type goldenTrace struct {
	Target    string `json:"target"`
	Retired   uint64 `json:"retired"`
	Transient uint64 `json:"transient"`
	Cycles    uint64 `json:"cycles"`
	Halted    bool   `json:"halted"`
	Addrs     int    `json:"addrs"`
	Events    int    `json:"events"`
	ByAddr    string `json:"by_addr"`
	Bank      string `json:"bank"`
	SetTrace  string `json:"set_trace"`
	Windows   string `json:"windows"`
	EventLog  string `json:"event_log"`
}

type traceTarget struct {
	name   string
	prog   *isa.Program
	victim *isa.Program
	cfg    exec.Config
}

// traceCorpus is every Table II PoC and extension, the hand-written and
// benign programs of the verdict corpus, a slice of the standard
// dataset, the Meltdown PoC under its protected kernel range, and two
// PoCs on a Random-replacement hierarchy (whose seeded victim choice
// must replay the same eviction sequence).
func traceCorpus(t *testing.T) []traceTarget {
	t.Helper()
	base := exec.DefaultConfig()
	var out []traceTarget
	for _, g := range goldenCorpus(t) {
		out = append(out, traceTarget{name: g.name, prog: g.prog, victim: g.victim, cfg: base})
	}
	ds, err := dataset.Standard(dataset.Config{PerClass: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ds.Samples {
		if i%2 == 0 {
			out = append(out, traceTarget{name: "dataset:" + s.Name, prog: s.Program, victim: s.Victim, cfg: base})
		}
	}
	p := attacks.DefaultParams()
	melt := attacks.MeltdownFR(p)
	protected := base
	protected.Protected = []exec.AddrRange{{Base: attacks.MeltdownKernelBase, Size: attacks.MeltdownKernelSize}}
	out = append(out, traceTarget{name: "protected:" + melt.Name, prog: melt.Program, victim: melt.Victim, cfg: protected})
	random := base
	random.Hierarchy.LLC.Policy = cache.Random
	random.Hierarchy.LLC.Seed = 7
	random.Hierarchy.L1D.Policy = cache.Random
	random.Hierarchy.L1D.Seed = 11
	for _, poc := range []attacks.PoC{attacks.FlushReloadIAIK(p), attacks.PrimeProbeIAIK(p)} {
		out = append(out, traceTarget{name: "random:" + poc.Name, prog: poc.Program, victim: poc.Victim, cfg: random})
	}
	return out
}

func runTrace(t *testing.T, tgt traceTarget, record bool) *exec.Trace {
	t.Helper()
	cfg := tgt.cfg
	cfg.RecordEvents = record
	m, err := exec.NewMachine(cfg, tgt.prog, tgt.victim)
	if err != nil {
		t.Fatalf("%s: %v", tgt.name, err)
	}
	return m.Run()
}

// replayBaselines feeds the complete event log of tr, a recorded run of
// tgt, through a baseline Recorder.
func replayBaselines(t *testing.T, tgt traceTarget, tr *exec.Trace) *baseline.Recorder {
	t.Helper()
	if tr.EventsTruncated {
		t.Fatalf("%s: event log truncated", tgt.name)
	}
	rec := baseline.NewRecorder(tgt.cfg.Hierarchy.LLC)
	for _, ev := range tr.Events {
		rec.Feed(ev)
	}
	rec.Finish()
	return rec
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func putU64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// sortedLines returns the lines instruction i of tr loaded or stored,
// and those it flushed, each sorted.
func sortedLines(tr *exec.Trace, i int) (mem, flush []uint64) {
	for _, lt := range tr.Lines(i, i+1) {
		if lt.Flush {
			flush = append(flush, lt.Line)
		} else {
			mem = append(mem, lt.Line)
		}
	}
	return mem, flush
}

func fingerprint(name string, prog *isa.Program, tr *exec.Trace, rec *baseline.Recorder) goldenTrace {
	g := goldenTrace{
		Target:    name,
		Retired:   tr.Retired,
		Transient: tr.Transient,
		Cycles:    tr.Cycles,
		Halted:    tr.Halted,
		Events:    len(tr.Events),
	}
	// by_addr hashes the instructions that were seen and bank those
	// with an HPC event, each keyed by its address, in address order
	// (the order of Insns).
	h := sha256.New()
	for i := range tr.Insns {
		r := &tr.Insns[i]
		if !r.Seen {
			continue
		}
		g.Addrs++
		mem, flush := sortedLines(tr, i)
		putU64(h, prog.Insns[i].Addr, r.ExecCount, r.FirstCycle, uint64(len(mem)))
		putU64(h, mem...)
		putU64(h, uint64(len(flush)))
		putU64(h, flush...)
	}
	g.ByAddr = digest(h)

	h = sha256.New()
	putU64(h, tr.Global[:]...)
	for i := range tr.Insns {
		if c := tr.Insns[i].HPC; c != (hpc.Counts{}) {
			putU64(h, prog.Insns[i].Addr)
			putU64(h, c[:]...)
		}
	}
	g.Bank = digest(h)

	h = sha256.New()
	for _, s := range rec.SetTrace {
		flush := uint64(0)
		if s.Flush {
			flush = 1
		}
		putU64(h, s.Cycle, uint64(s.Set), s.Line, flush, s.PC)
	}
	g.SetTrace = digest(h)

	h = sha256.New()
	putU64(h, baseline.DefaultWindowWidth)
	for _, w := range rec.Windows {
		putU64(h, w.StartCycle)
		putU64(h, w.Counts[:]...)
	}
	g.Windows = digest(h)

	h = sha256.New()
	if tr.EventsTruncated {
		putU64(h, 1)
	}
	for _, e := range tr.Events {
		putU64(h, uint64(e.Kind), e.Cycle, e.PC, e.Line, uint64(e.HPC))
	}
	g.EventLog = digest(h)
	return g
}

func TestGoldenTraces(t *testing.T) {
	var got []goldenTrace
	for _, tgt := range traceCorpus(t) {
		tr := runTrace(t, tgt, true)
		replayed := replayBaselines(t, tgt, tr)
		g := fingerprint(tgt.name, tgt.prog, tr, replayed)
		// Recording the event log must not perturb anything else: a run
		// with no event hooks, the path triage and model building take,
		// must match the recorded run in every field it produces.
		plain := fingerprint(tgt.name, tgt.prog, runTrace(t, tgt, false), replayed)
		plain.Events, plain.EventLog = g.Events, g.EventLog
		if plain != g {
			t.Errorf("%s: trace with the event log off differs from the recorded run:\n got %+v\nwant %+v", tgt.name, plain, g)
		}
		// A Recorder streamed the events live must equal the replayed one.
		m, err := exec.NewMachine(tgt.cfg, tgt.prog, tgt.victim)
		if err != nil {
			t.Fatalf("%s: %v", tgt.name, err)
		}
		rec := baseline.NewRecorder(tgt.cfg.Hierarchy.LLC)
		streamed, err := m.RunEvents(rec.Feed)
		if err != nil {
			t.Fatalf("%s: %v", tgt.name, err)
		}
		rec.Finish()
		live := fingerprint(tgt.name, tgt.prog, streamed, rec)
		live.Events, live.EventLog = g.Events, g.EventLog
		if live != g {
			t.Errorf("%s: streamed run differs from the recorded run:\n got %+v\nwant %+v", tgt.name, live, g)
		}
		got = append(got, g)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d trace fingerprints to %s", len(got), goldenTracesPath)
		return
	}
	data, err := os.ReadFile(goldenTracesPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with `go test -run Golden -update .`): %v", err)
	}
	var want []goldenTrace
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]goldenTrace, len(want))
	for _, w := range want {
		wantBy[w.Target] = w
	}
	if len(got) != len(want) {
		t.Errorf("corpus size changed: got %d traces, golden has %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := wantBy[g.Target]
		if !ok {
			t.Errorf("%s: not in golden file (new corpus entry? regenerate with -update)", g.Target)
			continue
		}
		if g != w {
			t.Errorf("%s: %s", g.Target, fieldDiff(g, w))
		}
	}
}

// fieldDiff names the fields of two fingerprints (structs of one type)
// that differ.
func fieldDiff(got, want any) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	var diffs []string
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Interface() != wv.Field(i).Interface() {
			diffs = append(diffs, fmt.Sprintf("%s %v, golden %v", gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface()))
		}
	}
	return fmt.Sprint(diffs)
}
