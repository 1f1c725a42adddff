package breaker

import (
	"context"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Probe pairs one backend's breaker with its health check. Check is
// typically RemoteShard.Check: alive, serving the expected slice, at
// the expected repository version — so a revived-but-stale backend
// fails its probe and stays quarantined instead of silently serving
// wrong-version matches.
type Probe struct {
	// Name identifies the backend in fault injection and reports.
	Name string
	// Breaker is the backend's circuit breaker.
	Breaker *Breaker
	// Check reports backend health; it must respect ctx.
	Check func(ctx context.Context) error
}

// Prober is the background half of breaker re-admission: every
// interval it probes each non-closed backend whose breaker admits a
// probe, and reports the outcome. A recovered backend is therefore
// re-closed within one probe interval of its open period elapsing,
// even if no scan reaches it — and a flapping backend keeps failing
// its probes at the breaker's growing open intervals, not at scan
// rate. Scans themselves never wait on the prober; it only flips
// breaker state in the background.
//
// Start launches the single prober goroutine; Stop halts it and waits
// for any in-flight probe round to finish, so a stopped prober leaks
// nothing (the leak regression test pins this).
type Prober struct {
	interval time.Duration
	timeout  time.Duration
	probes   []Probe

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// NewProber builds a prober over probes, one round per interval
// (minimum 10ms; default 5s when interval <= 0). Each individual
// check is bounded by the interval so a hung backend cannot stall the
// round past its period.
func NewProber(interval time.Duration, probes []Probe) *Prober {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	return &Prober{interval: interval, timeout: interval, probes: probes}
}

// Start launches the background probe loop. Starting a started prober
// is a no-op.
func (p *Prober) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	done := make(chan struct{})
	p.done = done
	go p.loop(ctx, done)
}

// Stop halts the probe loop and waits for it to exit. Stopping a
// stopped (or never started, or nil) prober is a no-op, so defer
// chains and double-Close paths are safe.
func (p *Prober) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	cancel, done := p.cancel, p.done
	p.cancel, p.done = nil, nil
	p.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// loop is the prober goroutine: one probe round per tick until
// cancelled.
func (p *Prober) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.round(ctx)
		}
	}
}

// round probes every backend whose breaker is not closed and admits a
// probe right now. Closed backends are left alone: live scans already
// exercise them, and probing them too would make the prober a second
// source of load on healthy machines.
func (p *Prober) round(ctx context.Context) {
	for _, pr := range p.probes {
		if ctx.Err() != nil {
			return
		}
		if pr.Breaker.State() == Closed || !pr.Breaker.Allow() {
			continue
		}
		// The breaker is half-open and this probe owns the slot.
		err := faultinject.Fire(faultinject.BreakerProbe, pr.Name)
		if err == nil {
			cctx, cancel := context.WithTimeout(ctx, p.timeout)
			err = pr.Check(cctx)
			cancel()
		}
		if ctx.Err() != nil {
			// The prober is shutting down, so this probe's outcome (a
			// cancelled check) says nothing about the backend. Hand the
			// half-open slot back untouched instead of reporting a
			// phantom failure that would grow the quarantine interval.
			pr.Breaker.ReleaseProbe()
			return
		}
		pr.Breaker.Report(err)
	}
}
