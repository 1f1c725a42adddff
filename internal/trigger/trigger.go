// Package trigger implements the future work the paper's Limitation
// paragraph sketches (Section V): attack programs "under disguise" only
// run their malicious behavior for specific inputs, so dynamic modeling
// on a default input misses them. The paper proposes adapting
// coverage-driven testcase generation to trigger the hidden behavior;
// this package provides exactly that — a greedy coverage-guided input
// explorer in the style of AFL's havoc stage — plus a builder for
// disguised PoCs to evaluate it against.
//
// The input channel is one 64-bit word at InputAddr, planted into
// memory before execution (the simulated equivalent of argv). The
// explorer mutates inputs, keeps those that reach new basic blocks, and
// returns the input with the largest cumulative coverage; modeling on
// that input exposes the gated attack phases.
package trigger

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/isa"
)

// InputAddr is where a program's 64-bit input word lives.
const InputAddr uint64 = 0x0f00_0000

// Explorer searches the input space for coverage.
type Explorer struct {
	// Budget is the number of executions the search may spend.
	Budget int
	// DetBytes is how many low bytes the deterministic value stage
	// sweeps (256 runs each).
	DetBytes int
	// Seed drives mutation choices.
	Seed int64
	// ExecConfig configures each run.
	ExecConfig exec.Config
}

// NewExplorer returns an explorer with sensible defaults: enough budget
// for the deterministic stage over two magic bytes plus a havoc tail.
func NewExplorer() *Explorer {
	cfg := exec.DefaultConfig()
	cfg.MaxRetired = 200_000
	return &Explorer{Budget: 640, DetBytes: 2, Seed: 1, ExecConfig: cfg}
}

// Result is the outcome of an exploration.
type Result struct {
	// BestInput reached the largest coverage.
	BestInput uint64
	// BestTrace is the trace of the best input's run.
	BestTrace *exec.Trace
	// Covered is the cumulative set of executed instruction addresses.
	Covered map[uint64]bool
	// Runs is the number of executions spent.
	Runs int
	// Corpus holds every input that contributed new coverage, in
	// discovery order.
	Corpus []uint64
}

// run executes prog with one input and returns the machine with its
// trace; the caller releases the machine once done with the trace.
func (e *Explorer) run(prog, victim *isa.Program, input uint64) (*exec.Machine, *exec.Trace, error) {
	m, err := exec.NewMachine(e.ExecConfig, prog, victim)
	if err != nil {
		return nil, nil, err
	}
	m.Memory().Store64(InputAddr, input)
	return m, m.Run(), nil
}

// coverage returns the addresses of prog's instructions that retired in
// tr, a trace of prog.
func coverage(prog *isa.Program, tr *exec.Trace) map[uint64]bool {
	out := make(map[uint64]bool)
	for i := range tr.Insns {
		if tr.Insns[i].ExecCount > 0 {
			out[prog.Insns[i].Addr] = true
		}
	}
	return out
}

// Explore searches for the input maximizing block coverage. It runs an
// AFL-style pipeline: seed inputs, a deterministic byte-value stage over
// the low DetBytes bytes (each value of each byte tried on the current
// best input — this is what walks byte-by-byte trigger comparisons), and
// a havoc stage of random mutations over the coverage-increasing corpus.
func (e *Explorer) Explore(prog, victim *isa.Program) (*Result, error) {
	if prog == nil {
		return nil, fmt.Errorf("trigger: nil program")
	}
	if e.Budget <= 0 {
		e.Budget = NewExplorer().Budget
	}
	if e.DetBytes <= 0 {
		e.DetBytes = 2
	}
	rng := rand.New(rand.NewSource(e.Seed))
	res := &Result{Covered: make(map[uint64]bool)}
	bestCov := 0
	// best is the machine of the run whose trace is res.BestTrace. It is
	// never released: the result keeps its trace. Every other run's
	// machine is released once its coverage is counted.
	var best *exec.Machine

	try := func(input uint64) (bool, error) {
		if res.Runs >= e.Budget {
			return false, nil
		}
		res.Runs++
		m, tr, err := e.run(prog, victim, input)
		if err != nil {
			return false, err
		}
		cov := coverage(prog, tr)
		grew := false
		for a := range cov {
			if !res.Covered[a] {
				res.Covered[a] = true
				grew = true
			}
		}
		// Track the single best run for modeling.
		if res.BestTrace == nil || len(cov) > bestCov {
			if best != nil {
				best.Release()
			}
			best = m
			res.BestInput, res.BestTrace, bestCov = input, tr, len(cov)
		} else {
			m.Release()
		}
		if grew {
			res.Corpus = append(res.Corpus, input)
		}
		return grew, nil
	}

	// Seed inputs: zero, all-ones, and a few sparse patterns.
	for _, s := range []uint64{0, ^uint64(0), 0x0101010101010101, 0x8000000000000000} {
		if _, err := try(s); err != nil {
			return nil, err
		}
	}

	// Deterministic byte-value stage on the running best input.
	for bytePos := 0; bytePos < e.DetBytes && res.Runs < e.Budget; bytePos++ {
		shift := uint(bytePos) * 8
		base := res.BestInput
		for v := 0; v < 256 && res.Runs < e.Budget; v++ {
			input := (base &^ (0xff << shift)) | uint64(v)<<shift
			if _, err := try(input); err != nil {
				return nil, err
			}
		}
	}

	// Havoc stage.
	for res.Runs < e.Budget {
		base := res.BestInput
		if len(res.Corpus) > 0 && rng.Intn(2) == 0 {
			base = res.Corpus[rng.Intn(len(res.Corpus))]
		}
		if _, err := try(mutateInput(base, rng)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// mutateInput applies one random havoc-style mutation.
func mutateInput(v uint64, rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0: // single bit flip
		return v ^ (1 << uint(rng.Intn(64)))
	case 1: // replace one byte
		shift := uint(rng.Intn(8)) * 8
		return (v &^ (0xff << shift)) | uint64(rng.Intn(256))<<shift
	case 2: // small arithmetic nudge
		return v + uint64(rng.Intn(32)) - 16
	case 3: // interesting byte into a random slot
		interesting := []uint64{0x00, 0x01, 0x7f, 0x80, 0xff, 0xca, 0xfe, 0xde, 0xad}
		shift := uint(rng.Intn(8)) * 8
		return (v &^ (0xff << shift)) | interesting[rng.Intn(len(interesting))]<<shift
	default: // fresh random word
		return rng.Uint64()
	}
}
