package scaguard

// The golden traces test pins the complete execution record of a fixed
// program corpus: per-address records (with their memory and flush line
// sets), the HPC bank per address and globally, the cache-set trace,
// the HPC windows, the run totals and the chronological event log. It is
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
	"sort"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/exec"
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

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func putU64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func sortedSet(set map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func fingerprint(name string, tr *exec.Trace) goldenTrace {
	g := goldenTrace{
		Target:    name,
		Retired:   tr.Retired,
		Transient: tr.Transient,
		Cycles:    tr.Cycles,
		Halted:    tr.Halted,
		Addrs:     len(tr.ByAddr),
		Events:    len(tr.Events),
	}
	h := sha256.New()
	for _, a := range tr.Addrs() {
		r := tr.ByAddr[a]
		mem, flush := sortedSet(r.MemLines), sortedSet(r.FlushLines)
		putU64(h, a, r.ExecCount, r.FirstCycle, uint64(len(mem)))
		putU64(h, mem...)
		putU64(h, uint64(len(flush)))
		putU64(h, flush...)
	}
	g.ByAddr = digest(h)

	h = sha256.New()
	gl := tr.Bank.Global()
	putU64(h, gl[:]...)
	addrs := tr.Bank.Addrs()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		c := tr.Bank.At(a)
		putU64(h, a)
		putU64(h, c[:]...)
	}
	g.Bank = digest(h)

	h = sha256.New()
	for _, s := range tr.SetTrace {
		putU64(h, s.Cycle, uint64(s.Set), s.Line, uint64(s.Kind), s.PC)
	}
	g.SetTrace = digest(h)

	h = sha256.New()
	putU64(h, tr.WindowWidth)
	for _, w := range tr.Windows {
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
		g := fingerprint(tgt.name, tr)
		// Recording the event log must not perturb anything else.
		plain := fingerprint(tgt.name, runTrace(t, tgt, false))
		plain.Events, plain.EventLog = g.Events, g.EventLog
		if plain != g {
			t.Errorf("%s: trace with the event log off differs from the recorded run:\n got %+v\nwant %+v", tgt.name, plain, g)
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
