package baseline

import (
	"sort"

	"repro/internal/isa"
)

// SCADET is the learning-free rule engine of Sabbagh et al.: it scans
// the target's cache-set access trace for the Prime+Probe signature —
// per LLC set, a burst that fills all ways (prime) followed, after a
// quiet interval, by a second burst over the same set (probe), the
// pattern repeating across several sets.
//
// Like the original tool, its rules describe Prime+Probe only: programs
// that rely on CLFLUSH are outside its rule set, and in the experiments
// it can only ever report the families whose rules the defender has
// loaded (Section IV-D discussion). The rules are deliberately literal
// pattern matches; that brittleness against variants is exactly what
// the paper's E2-E4 comparisons exercise.
type SCADET struct {
	// Ways is the associativity a prime burst must cover.
	Ways int
	// MaxBurstGap is the largest cycle gap between consecutive accesses
	// of one burst; it tolerates victim interleaving but separates the
	// prime and probe phases of one set.
	MaxBurstGap uint64
	// MinSets is how many sets must exhibit the prime/probe pattern.
	MinSets int
	// MaxForeign is how many foreign-set accesses a burst tolerates
	// between two accesses of its set.
	MaxForeign int
	// MaxLoopBody is the largest loop body (in instructions) the prime
	// loop may have: every burst must come from a single load PC whose
	// enclosing loop is tight. Junk-code obfuscation inflates loop
	// bodies past this bound, which is how the rule set loses the
	// obfuscated variants.
	MaxLoopBody int
	// Label is the verdict for a match (the PP family label).
	Label string
	// BenignLabel is the verdict when no rule fires.
	BenignLabel string
}

// NewSCADET returns the rule engine with its published configuration
// adapted to this machine (8-way LLC, tight-loop gap calibrated to the
// corpus's prime loops).
func NewSCADET() *SCADET {
	return &SCADET{
		Ways:        8,
		MaxBurstGap: 5000,
		MinSets:     3,
		MaxForeign:  2,
		MaxLoopBody: 16,
		Label:       "PP-F",
		BenignLabel: "Benign",
	}
}

// Name identifies the tool.
func (s *SCADET) Name() string { return "SCADET" }

// burst is a run of same-set accesses.
type burst struct {
	start, end uint64 // cycles
	count      int
	pc         uint64 // single source PC, 0 when mixed
	lines      map[uint64]struct{}
}

// Detect applies the rules to a cache-set trace (Recorder.SetTrace)
// and the program that produced it, returning the label.
func (s *SCADET) Detect(setTrace []SetAccess, prog *isa.Program) string {
	// Rule 0: Prime+Probe does not flush; a clflush-bearing program is
	// outside the rule set.
	if prog != nil {
		for _, in := range prog.Insns {
			if in.Op == isa.CLFLUSH {
				return s.BenignLabel
			}
		}
	}

	// Split the chronological set trace into per-set access lists while
	// tracking global ordering for the foreign-access tolerance.
	type access struct {
		cycle uint64
		seq   int
		pc    uint64
		line  uint64
	}
	bySet := make(map[int][]access)
	for i, e := range setTrace {
		if e.Flush {
			return s.BenignLabel
		}
		bySet[e.Set] = append(bySet[e.Set], access{cycle: e.Cycle, seq: i, pc: e.PC, line: e.Line})
	}

	setsWithPattern := 0
	sets := make([]int, 0, len(bySet))
	for set := range bySet {
		sets = append(sets, set)
	}
	sort.Ints(sets)
	for _, set := range sets {
		accs := bySet[set]
		// Carve bursts: consecutive accesses with small cycle gaps and
		// few interleaved foreign accesses.
		// A burst is a run of same-set accesses from one instruction (the
		// loop's load) with small gaps; a change of source PC starts the
		// next phase (prime -> probe).
		var bursts []burst
		newBurst := func(a access) burst {
			return burst{start: a.cycle, end: a.cycle, count: 1, pc: a.pc,
				lines: map[uint64]struct{}{a.line: {}}}
		}
		cur := newBurst(accs[0])
		lastSeq := accs[0].seq
		for _, a := range accs[1:] {
			gap := a.cycle - cur.end
			foreign := a.seq - lastSeq - 1
			if a.pc == cur.pc && gap <= s.MaxBurstGap && foreign <= s.MaxForeign {
				cur.end = a.cycle
				cur.count++
				cur.lines[a.line] = struct{}{}
			} else {
				bursts = append(bursts, cur)
				cur = newBurst(a)
			}
			lastSeq = a.seq
		}
		bursts = append(bursts, cur)

		// A prime/probe pair: two consecutive full-way bursts, each from
		// a single load inside a tight loop and covering all ways with
		// distinct lines (a data-reuse loop over few lines is not a
		// prime sweep).
		full := 0
		for _, b := range bursts {
			if b.count >= s.Ways && len(b.lines) >= s.Ways && s.tightLoop(prog, b.pc) {
				full++
			}
		}
		if full >= 2 {
			setsWithPattern++
		}
	}
	if setsWithPattern >= s.MinSets {
		return s.Label
	}
	return s.BenignLabel
}

// tightLoop reports whether pc sits inside a loop whose body is at most
// MaxLoopBody instructions: there is a backward branch at or after pc
// targeting an address at or before pc, spanning a small body.
func (s *SCADET) tightLoop(prog *isa.Program, pc uint64) bool {
	if prog == nil {
		return true // no code available: trace-only mode skips the check
	}
	best := -1
	for _, in := range prog.Insns {
		t, ok := in.BranchTarget()
		if !ok || t > in.Addr {
			continue // not a backward branch
		}
		if t <= pc && pc <= in.Addr {
			body := int((in.Addr-t)/4) + 1
			if best < 0 || body < best {
				best = body
			}
		}
	}
	return best > 0 && best <= s.MaxLoopBody
}
