package model

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
)

// WindowBuilder models one program against successive trace slices
// without redoing per-program work. The sliding-window detector
// (internal/window) rebuilds a CST-BBS for every window of one
// execution; two pipeline inputs depend only on the static program, not
// on the trace, and are computed once here:
//
//   - the CFG (recovered at construction and reused for every window);
//   - block instruction-sequence normalization (the IS of Section
//     III-B1), memoized per leader on first use.
//
// Everything trace-dependent — HPC folding, overlap filtering,
// Algorithm 1, CST measurement — runs per window, because a window's
// model genuinely differs from the full-trace model.
//
// A WindowBuilder is NOT safe for concurrent use: the normalization
// memo is a plain map. The window detector builds windows sequentially
// (windows of one trace are inherently ordered), so this costs nothing.
type WindowBuilder struct {
	prog   *isa.Program
	cfg    *cfg.CFG
	llc    cache.Config
	config Config
	norms  map[uint64][]string
}

// NewWindowBuilder recovers the CFG of prog and prepares for repeated
// trace builds. llc is the LLC configuration the traces were (or will
// be) collected under — it defines the set-index function of the
// overlap filter, exactly as in BuildFromTrace.
func NewWindowBuilder(prog *isa.Program, llc cache.Config, config Config) (*WindowBuilder, error) {
	if prog == nil {
		return nil, fmt.Errorf("model: program is nil")
	}
	config = config.withDefaults()
	c, err := cfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("model: cfg: %w", err)
	}
	return &WindowBuilder{
		prog:   prog,
		cfg:    c,
		llc:    llc,
		config: config,
		norms:  make(map[uint64][]string),
	}, nil
}

// CFG exposes the cached control-flow graph.
func (b *WindowBuilder) CFG() *cfg.CFG { return b.cfg }

// Build models the program's behavior over one trace slice. The result
// is identical to BuildFromTrace(prog, trace, llc, config) for the same
// inputs (TestWindowBuilderMatchesBuildFromTrace pins this); only the
// repeated static work is skipped.
func (b *WindowBuilder) Build(ctx context.Context, trace *exec.Trace) (*Model, error) {
	if trace == nil {
		return nil, fmt.Errorf("model: trace is nil")
	}
	return buildFromTraceWith(ctx, b.prog, b.cfg, trace, b.llc, b.config, b.appendNorm)
}

// appendNorm is appendNormalized with the normalization memoized per
// leader.
func (b *WindowBuilder) appendNorm(dst []string, bb *cfg.BasicBlock) []string {
	n, ok := b.norms[bb.Leader]
	if !ok {
		n = isa.AppendNormalized(nil, bb.Insns)
		b.norms[bb.Leader] = n
	}
	return append(dst, n...)
}
