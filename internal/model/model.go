// Package model implements SCAGuard's attack behavior modeling
// (Section III-A of the paper): it turns a binary program into a
// CST-BBS — a cache-state-transition enhanced basic block sequence.
//
// The pipeline is:
//
//  1. Recover the CFG (internal/cfg) and execute the program on the
//     simulated machine (internal/exec), collecting HPC events per
//     instruction address and the memory lines each instruction touched.
//  2. Identify potential attack-relevant BBs: blocks with a nonzero HPC
//     value (the sum of the 11 counted Table-I events mapped onto the
//     block's instruction addresses).
//  3. Refine using cache-set overlap: keep only blocks that touch a
//     cache set touched by at least one other block (during an attack,
//     some cache sets must be accessed multiple times by at least two
//     different blocks — flush vs reload, prime vs probe).
//  4. Connect the surviving blocks into an attack-relevant graph with
//     Algorithm 1 (see algorithm1.go).
//  5. Measure a cache state transition for every block of the graph in a
//     dedicated cache simulator (see cst.go) and flatten the graph into
//     a sequence ordered by first-execution time.
package model

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/hpc"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// Config tunes attack behavior modeling.
type Config struct {
	// Exec configures the data-collection run.
	Exec exec.Config
	// MeasureCache configures the dedicated cache simulator used for CST
	// measurement; zero value selects DefaultMeasureCache.
	MeasureCache cache.Config
	// MaxPathsPerPair bounds path enumeration between two relevant BBs.
	MaxPathsPerPair int
	// MaxPathLen bounds the length (in blocks) of enumerated paths.
	MaxPathLen int
	// MaxWeight is Algorithm 1's MAX constant for directly connected
	// relevant blocks.
	MaxWeight float64
	// Telemetry optionally records modeling counters and stage timings
	// (trace collection, attack-relevant BB extraction, CST simulation).
	// nil disables instrumentation at zero cost.
	Telemetry *telemetry.Collector
}

// DefaultMeasureCache is the cache simulator configuration used to
// measure CSTs: deliberately small (64 lines) so that a single basic
// block visibly moves the occupancy rates — a flush of one line, a
// reload of a dozen and a prime sweep of a hundred land at clearly
// different deltas, which is what makes the CSP distance discriminative.
func DefaultMeasureCache() cache.Config {
	return cache.Config{Name: "cst-measure", Sets: 16, Ways: 4, LineSize: 64, Policy: cache.LRU}
}

// DefaultConfig returns the modeling configuration used throughout the
// reproduction.
func DefaultConfig() Config {
	return Config{
		Exec:            exec.DefaultConfig(),
		MeasureCache:    DefaultMeasureCache(),
		MaxPathsPerPair: 64,
		MaxPathLen:      64,
		MaxWeight:       1e9,
	}
}

func (c Config) withDefaults() Config {
	if c.MeasureCache.Sets == 0 {
		c.MeasureCache = DefaultMeasureCache()
	}
	if c.MaxPathsPerPair == 0 {
		c.MaxPathsPerPair = 64
	}
	if c.MaxPathLen == 0 {
		c.MaxPathLen = 64
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 1e9
	}
	return c
}

// CST is one cache state transition S --b--> S' (Definition 4) plus the
// block information the similarity metric needs.
type CST struct {
	Leader uint64
	Before cache.State
	After  cache.State
	// NormInsns is the normalized instruction sequence of the block
	// (IS of Section III-B1).
	NormInsns []string
	// FirstCycle is when the block first executed; it orders the BBS.
	FirstCycle uint64
	// HPCValue is the block's summed HPC value.
	HPCValue uint64
}

// Delta returns P = (|AO-AO'| + |IO-IO'|)/2, the magnitude of cache
// change the CSP distance compares.
func (c CST) Delta() float64 {
	dAO := c.After.AO - c.Before.AO
	if dAO < 0 {
		dAO = -dAO
	}
	dIO := c.After.IO - c.Before.IO
	if dIO < 0 {
		dIO = -dIO
	}
	return (dAO + dIO) / 2
}

// CSTBBS is the attack behavior model: a sequence of cache state
// transitions in first-execution order (Definition 5).
type CSTBBS struct {
	Name string
	Seq  []CST
	// TimerReads counts the timestamp reads (RDTSCP) observed while
	// collecting the model. Every cache side-channel attack measures
	// time — it is the channel — so a target with zero timer reads
	// cannot be a CSCA; the detector uses this as a prerequisite.
	TimerReads uint64
}

// Len returns the sequence length.
func (s *CSTBBS) Len() int { return len(s.Seq) }

// Model is the full result of attack behavior modeling; it keeps the
// intermediate artefacts the evaluation (Table IV) reports on.
type Model struct {
	Name string
	CFG  *cfg.CFG
	// PotentialBBs is the step-1 result: leaders with nonzero HPC value.
	PotentialBBs []uint64
	// RelevantBBs is the step-2 result after cache-set overlap filtering.
	RelevantBBs []uint64
	// AttackGraph is the Algorithm-1 result; its nodes are the identified
	// attack-relevant blocks (#IAB in Table IV).
	AttackGraph *graph.Digraph
	// BBS is the flattened CST-BBS used for similarity comparison.
	BBS *CSTBBS
	// HPCByBB maps block leaders to HPC values (diagnostics/ablation).
	HPCByBB map[uint64]uint64
	// MemLinesByBB maps block leaders to the accessed line addresses.
	MemLinesByBB map[uint64][]uint64
	// TraceCycles records how long the collection run took (virtual).
	TraceCycles uint64
}

// IdentifiedBBs returns the attack-relevant blocks found by the pipeline
// (the nodes of the attack-relevant graph), sorted.
func (m *Model) IdentifiedBBs() []uint64 {
	out := m.AttackGraph.Nodes()
	slices.Sort(out)
	return out
}

// Build models the attack behavior of prog. victim may be nil; when
// present it runs interleaved with prog on the shared cache (the setting
// Flush+Reload-style PoCs require).
func Build(prog *isa.Program, victim *isa.Program, config Config) (*Model, error) {
	return BuildCtx(context.Background(), prog, victim, config)
}

// BuildCtx is Build with cooperative cancellation: the context is
// checked at stage boundaries (before CFG recovery, before and after
// the simulation run, before CST measurement), so a cancelled or
// expired context aborts modeling between stages with the context's
// error. A background context takes the same path at no measurable
// cost. The interior stages themselves run to completion — cancellation
// is cooperative, not preemptive.
func BuildCtx(ctx context.Context, prog *isa.Program, victim *isa.Program, config Config) (*Model, error) {
	config = config.withDefaults()
	if prog == nil {
		return nil, fmt.Errorf("model: program is nil")
	}
	if err := faultinject.Fire(faultinject.ModelBuild, prog.Name); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tel := config.Telemetry
	buildStart := tel.Now()
	c, err := cfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("model: cfg: %w", err)
	}
	// The trace never leaves this function and modeling reads no
	// cache-set trace, so the run records none.
	execCfg := config.Exec
	execCfg.MaxSetTrace = -1
	machine, err := exec.NewMachine(execCfg, prog, victim)
	if err != nil {
		return nil, fmt.Errorf("model: exec: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	traceStart := tel.Now()
	trace := machine.Run()
	tel.ObserveSince(telemetry.StageTrace, traceStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := buildFromTraceCtx(ctx, prog, c, trace, machine.Hierarchy().LLC().Config(), config)
	if err == nil {
		tel.Inc(telemetry.ModelBuilds)
		tel.ObserveSince(telemetry.StageModel, buildStart)
	}
	return m, err
}

// BuildFromTrace models attack behavior from an existing execution
// trace (collected with the LLC configuration llc), recovering the CFG
// from the program. It allows callers that already ran the program —
// e.g. the experiment harness, which shares one trace between SCAGuard
// and the baselines — to skip the second simulation.
func BuildFromTrace(prog *isa.Program, trace *exec.Trace, llc cache.Config, config Config) (*Model, error) {
	config = config.withDefaults()
	if prog == nil {
		return nil, fmt.Errorf("model: program is nil")
	}
	if trace == nil {
		return nil, fmt.Errorf("model: trace is nil")
	}
	c, err := cfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("model: cfg: %w", err)
	}
	return buildFromTraceCtx(context.Background(), prog, c, trace, llc, config)
}

// buildFromTraceCtx is the deterministic part of the pipeline, split
// out for targeted testing. The context is observed once, before CST
// measurement (the only interior boundary left after the trace exists).
func buildFromTraceCtx(ctx context.Context, prog *isa.Program, c *cfg.CFG, trace *exec.Trace, llc cache.Config, config Config) (*Model, error) {
	return buildFromTraceWith(ctx, prog, c, trace, llc, config, normalizeBlock)
}

// normalizeBlock is the default (unmemoized) block normalizer.
func normalizeBlock(bb *cfg.BasicBlock) []string {
	return isa.NormalizeSeq(bb.Insns)
}

// buildFromTraceWith additionally takes the block normalizer, letting
// repeated-build callers (WindowBuilder) memoize normalization — it
// depends only on the static block, never on the trace. The returned
// slice is only read and appended onto a fresh slice, so sharing one
// across builds is safe.
func buildFromTraceWith(ctx context.Context, prog *isa.Program, c *cfg.CFG, trace *exec.Trace, llc cache.Config, config Config, normOf func(*cfg.BasicBlock) []string) (*Model, error) {
	if err := llc.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	tel := config.Telemetry
	extractStart := tel.Now()
	blocks := c.Ordered()

	// Step 1: HPC values folded onto blocks. A block is potentially
	// attack-relevant when its value is nonzero; pot lists those blocks'
	// positions in blocks, in leader order.
	pot := make([]int32, 0, len(blocks))
	hpcOf := make([]uint64, 0, len(blocks))
	potInsns := 0
	for k := range blocks {
		var v uint64
		for i := range blocks[k].Insns {
			v += trace.Bank.At(blocks[k].Insns[i].Addr).Sum()
		}
		if v > 0 {
			pot = append(pot, int32(k))
			hpcOf = append(hpcOf, v)
			potInsns += len(blocks[k].Insns)
		}
	}
	m := &Model{
		Name:         prog.Name,
		CFG:          c,
		HPCByBB:      make(map[uint64]uint64, len(pot)),
		MemLinesByBB: make(map[uint64][]uint64, len(pot)),
		TraceCycles:  trace.Cycles,
	}
	if len(pot) > 0 {
		m.PotentialBBs = make([]uint64, len(pot))
	}
	for p, k := range pot {
		m.PotentialBBs[p] = blocks[k].Leader
		m.HPCByBB[blocks[k].Leader] = hpcOf[p]
	}

	// Collect accessed lines per potential block. MemLinesByBB holds the
	// union of loaded/stored and flushed lines (the paper's overlap
	// analysis includes flushed addresses); loads[p] keeps only the
	// loads/stores of potential block p so CST measurement can replay
	// flushes as flushes. Both are sorted, deduplicated windows of one
	// line array.
	recs := make([]*exec.AddrRecord, 0, potInsns)
	firstCycle := make([]uint64, len(pot))
	nUnion, nLoads := 0, 0
	for p, k := range pot {
		fc := uint64(notExecuted)
		for i := range blocks[k].Insns {
			r := trace.ByAddr[blocks[k].Insns[i].Addr]
			recs = append(recs, r)
			if r != nil {
				nUnion += len(r.MemLines) + len(r.FlushLines)
				nLoads += len(r.MemLines)
				if r.ExecCount > 0 && r.FirstCycle < fc {
					fc = r.FirstCycle
				}
			}
		}
		firstCycle[p] = fc
	}
	lineBuf := make([]uint64, 0, nUnion+nLoads)
	// cut sorts and deduplicates lineBuf[start:] and returns it as a
	// capacity-limited window.
	cut := func(start int) []uint64 {
		lineBuf = lineBuf[:start+len(dedupSorted(lineBuf[start:]))]
		return lineBuf[start:len(lineBuf):len(lineBuf)]
	}
	loads := make([][]uint64, len(pot))
	for p, k := range pot {
		block := recs[:len(blocks[k].Insns)]
		recs = recs[len(block):]
		start := len(lineBuf)
		for _, r := range block {
			if r != nil {
				for l := range r.MemLines {
					lineBuf = append(lineBuf, l)
				}
				for l := range r.FlushLines {
					lineBuf = append(lineBuf, l)
				}
			}
		}
		m.MemLinesByBB[blocks[k].Leader] = cut(start)
		start = len(lineBuf)
		for _, r := range block {
			if r != nil {
				for l := range r.MemLines {
					lineBuf = append(lineBuf, l)
				}
			}
		}
		loads[p] = cut(start)
	}

	// Step 2: cache-set overlap filtering. A block survives when one of
	// its lines maps (under the real LLC's set-index function) to a set
	// that lines of at least one other block map to as well. pairs holds
	// every (set, block) pair, set in the high half; sorted, the pairs of
	// one set form a run whose blocks ascend.
	pairs := make([]uint64, 0, nUnion)
	for p := range pot {
		for _, l := range m.MemLinesByBB[m.PotentialBBs[p]] {
			pairs = append(pairs, uint64(llc.SetIndex(l))<<32|uint64(p))
		}
	}
	slices.Sort(pairs)
	keep := make([]bool, len(pot))
	nKeep := 0
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j]>>32 == pairs[i]>>32 {
			j++
		}
		if uint32(pairs[i]) != uint32(pairs[j-1]) {
			for _, pr := range pairs[i:j] {
				if !keep[uint32(pr)] {
					keep[uint32(pr)] = true
					nKeep++
				}
			}
		}
		i = j
	}
	if nKeep > 0 {
		m.RelevantBBs = make([]uint64, 0, nKeep)
		for p, leader := range m.PotentialBBs {
			if keep[p] {
				m.RelevantBBs = append(m.RelevantBBs, leader)
			}
		}
	}

	// Step 3: Algorithm 1 — attack-relevant graph construction.
	m.AttackGraph = BuildAttackGraph(c.G, c.EntryLeader(), m.RelevantBBs, m.HPCByBB, config)
	tel.ObserveSince(telemetry.StageBBExtract, extractStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.Fire(faultinject.ModelCST, prog.Name); err != nil {
		return nil, fmt.Errorf("model: cst measurement: %w", err)
	}
	cstStart := tel.Now()

	// Step 4: CST measurement for every node of the attack-relevant
	// graph, then flattening by first execution time. Blocks pulled in by
	// path restoration may never have executed (or executed without
	// memory traffic); they get identity CSTs and sort by leader address
	// after the executed blocks.
	// Canonicalize the attack-relevant graph into chains: a run of blocks
	// where each has exactly one successor and the next exactly one
	// predecessor behaves as one straight-line unit. This fuses the
	// fragments that junk-code obfuscation splits a block into, so an
	// obfuscated variant flattens to nearly the same CST-BBS as its
	// original.
	execCount := func(leader uint64) uint64 {
		if r := trace.ByAddr[leader]; r != nil {
			return r.ExecCount
		}
		return 0
	}
	chains := straightChains(m.AttackGraph, execCount)
	type entry struct {
		cst      CST
		executed bool
	}
	entries := make([]entry, 0, len(chains))
	measure := cache.MustNew(config.MeasureCache)
	var chainLoads, chainFlushes []uint64 // reused across chains
	// Every chain's NormInsns is a capacity-limited window of norms.
	nInsns := 0
	for _, leader := range m.AttackGraph.Nodes() {
		nInsns += len(c.Blocks[leader].Insns)
	}
	norms := make([]string, 0, nInsns)
	for _, chain := range chains {
		chainLoads, chainFlushes = chainLoads[:0], chainFlushes[:0]
		start := len(norms)
		var hpcSum uint64
		fc := uint64(notExecuted)
		executed := false
		for _, leader := range chain {
			bb := c.Blocks[leader]
			var f uint64
			var ok bool
			if p, potential := slices.BinarySearch(m.PotentialBBs, leader); potential {
				chainLoads = append(chainLoads, loads[p]...)
				f, ok = firstCycle[p], firstCycle[p] != notExecuted
			} else {
				f, ok = blockFirstCycle(bb, trace)
			}
			for i := range bb.Insns {
				if r := trace.ByAddr[bb.Insns[i].Addr]; r != nil {
					for l := range r.FlushLines {
						chainFlushes = append(chainFlushes, l)
					}
				}
			}
			norms = append(norms, normOf(bb)...)
			hpcSum += m.HPCByBB[leader]
			if ok {
				fc = min(fc, f)
				executed = true
			}
		}
		cst := MeasureCST(measure, dedupSorted(chainLoads), dedupSorted(chainFlushes))
		cst.Leader = chain[0]
		cst.NormInsns = norms[start:len(norms):len(norms)]
		cst.HPCValue = hpcSum
		if cst.HPCValue == 0 && cst.Delta() == 0 {
			// Connector chains restored by Algorithm 1 for control-flow
			// completeness carry no cache behavior; they stay in the
			// attack-relevant graph but would only add syntactic noise
			// to the similarity comparison, so the flattened CST-BBS
			// keeps the cache-active chains.
			norms = norms[:start]
			continue
		}
		cst.FirstCycle = fc
		entries = append(entries, entry{cst: cst, executed: executed})
	}
	slices.SortStableFunc(entries, func(a, b entry) int {
		if a.executed != b.executed {
			if a.executed {
				return -1
			}
			return 1
		}
		if a.executed && a.cst.FirstCycle != b.cst.FirstCycle {
			return cmp.Compare(a.cst.FirstCycle, b.cst.FirstCycle)
		}
		return cmp.Compare(a.cst.Leader, b.cst.Leader)
	})
	bbs := &CSTBBS{Name: prog.Name, TimerReads: trace.Bank.Global()[hpc.Timestamp]}
	if len(entries) > 0 {
		bbs.Seq = make([]CST, len(entries))
		for i := range entries {
			bbs.Seq[i] = entries[i].cst
		}
	}
	m.BBS = bbs
	tel.ObserveSince(telemetry.StageCST, cstStart)
	return m, nil
}

// straightChains partitions the attack-relevant graph's nodes into
// maximal straight-line chains: consecutive nodes linked by an edge
// where the predecessor has out-degree one, the successor in-degree
// one, and both executed equally often (two fragments of one split
// block always share their execution count; blocks of different loop
// phases do not). Chains are returned in ascending order of their head
// leader; node order within a chain follows the control flow. The
// chains are windows of one backing array.
func straightChains(g *graph.Digraph, execCount func(uint64) uint64) [][]uint64 {
	nodes := g.Nodes()
	slices.Sort(nodes)
	mergeable := func(a, b uint64) bool {
		return len(g.Succs(a)) == 1 && len(g.Preds(b)) == 1 &&
			execCount(a) > 0 && execCount(a) == execCount(b)
	}
	isHead := func(n uint64) bool {
		preds := g.Preds(n)
		if len(preds) != 1 {
			return true
		}
		return !mergeable(preds[0], n)
	}
	visited := make([]bool, len(nodes))
	flat := make([]uint64, 0, len(nodes))
	var chains [][]uint64
	cut := func(start int) { chains = append(chains, flat[start:len(flat):len(flat)]) }
	for i, n := range nodes {
		if visited[i] || !isHead(n) {
			continue
		}
		start := len(flat)
		flat = append(flat, n)
		visited[i] = true
		cur := n
		for {
			succs := g.Succs(cur)
			if len(succs) != 1 {
				break
			}
			next := succs[0]
			j, _ := slices.BinarySearch(nodes, next)
			if visited[j] || !mergeable(cur, next) {
				break
			}
			visited[j] = true
			flat = append(flat, next)
			cur = next
		}
		cut(start)
	}
	// Nodes inside cycles (no head) — defensive; the restored graph is
	// built from acyclic paths, but cover it anyway.
	for i, n := range nodes {
		if !visited[i] {
			visited[i] = true
			flat = append(flat, n)
			cut(len(flat) - 1)
		}
	}
	return chains
}

// notExecuted is the first-cycle placeholder of a block none of whose
// instructions retired.
const notExecuted = 1<<63 - 1

// dedupSorted sorts and deduplicates a line slice in place.
func dedupSorted(lines []uint64) []uint64 {
	slices.Sort(lines)
	return slices.Compact(lines)
}

// blockFirstCycle returns the earliest retirement cycle of any
// instruction of the block.
func blockFirstCycle(bb *cfg.BasicBlock, trace *exec.Trace) (uint64, bool) {
	best := uint64(notExecuted)
	found := false
	for _, in := range bb.Insns {
		if r := trace.ByAddr[in.Addr]; r != nil && r.ExecCount > 0 {
			if r.FirstCycle < best {
				best = r.FirstCycle
			}
			found = true
		}
	}
	return best, found
}
