// Package faultinject provides named failpoints for deterministic
// fault injection in tests. Production code plants a failpoint at the
// places the robustness contract cares about (model building, CST
// measurement, scan workers, shard scatters) by calling Fire; tests arm
// a failpoint with an Action (panic, error, sleep, or a custom
// function) and drive the pipeline through the failure they want to
// prove survivable — a panic in one stream target, a scan worker that
// stalls, a CST measurement that errors.
//
// Failpoints are enabled only from tests: nothing outside _test files
// may call Enable, and the disabled fast path — a single atomic load in
// Fire — is all that production binaries ever execute. The catalog of
// planted failpoints is part of the robustness contract and documented
// in docs/ROBUSTNESS.md.
//
// The detail argument to Fire carries the identity of the work item at
// the failpoint (a target name, a worker index), so tests can aim a
// fault at exactly one item of a batch with Match and keep the harness
// deterministic under concurrency.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one planted failpoint. The constants below are the
// catalog; Fire accepts any Point so tests can also use ad-hoc points
// for their own plumbing.
type Point string

// The planted failpoints.
const (
	// ModelBuild fires at the start of model.Build/BuildCtx with the
	// program name. A panic action here models a malformed target
	// crashing the modeling stage.
	ModelBuild Point = "model.build"
	// ModelCST fires before CST measurement in the modeling pipeline
	// with the program name. An error action here models a failing
	// cache-state measurement.
	ModelCST Point = "model.cst"
	// ScanWorker fires once per (target, entry) work item inside the
	// scan engine's worker loop with an empty detail. A sleep action
	// here models a slow scan worker; a panic action a crashing one.
	ScanWorker Point = "scan.worker"
	// IndexBuild fires at the start of a repository-index construction
	// (internal/index.Build) with the entry count. An error action here
	// models a failed index build; the scan engine must degrade to the
	// flat scan path, never fail classification.
	IndexBuild Point = "index.build"
	// ShardScan fires in the shard coordinator once per (target, shard)
	// scatter with the shard's name, before the shard is scanned. An
	// error action here models a dead or misbehaving shard; the
	// coordinator must degrade to partial results.
	ShardScan Point = "shard.scan"
	// ShardReplicaRPC fires in a replica group (internal/shard) before
	// each replica attempt of a scan, with the replica's name. An error
	// action here models one dead replica of a group — the group must
	// fail over to the next replica and the scan must stay complete; a
	// sleep action models a slow replica the attempt timeout must cut
	// off. The chaos harness (internal/chaos) drives its slow-replica
	// scenarios through this point.
	ShardReplicaRPC Point = "shard.replica.rpc"
	// BreakerProbe fires in the background health prober
	// (internal/breaker) before each probe of a quarantined backend,
	// with the backend's name. An error action models a probe that
	// cannot reach a recovered backend: the breaker must stay open and
	// re-probe later instead of re-admitting blindly.
	BreakerProbe Point = "breaker.probe"
	// VCacheLookup fires in the verdict result cache (internal/vcache)
	// before each lookup with the target's content hash. An error action
	// here models an unavailable cache: the lookup is bypassed and the
	// scan computes uncached — a cache fault must never fail or corrupt
	// a classification.
	VCacheLookup Point = "vcache.lookup"
	// ServeAdmit fires in the detection server's admission gate
	// (internal/serve) with the request's API key, before the token
	// bucket and concurrency cap are consulted. An error action models
	// a failing admission dependency: the request must be shed with 429
	// — never hung, never crashed.
	ServeAdmit Point = "serve.admit"
	// ServeReload fires at the start of the detection server's POST
	// /reload handler with the requested repository path. An error
	// action models a failing repository source: the reload must fail
	// cleanly with the old repository still serving.
	ServeReload Point = "serve.reload"
	// WindowEmit fires in the sliding-window detector just before a
	// window verdict is emitted, with "name#index" identifying the
	// window. An error action models a failing downstream consumer: the
	// verdict must surface the error and later windows must keep
	// flowing — one poisoned window may not stall the stream.
	WindowEmit Point = "window.emit"
)

// Action is what an armed failpoint does when fired: return nil to do
// nothing, return an error to inject a failure through the error path,
// panic to inject a crash, or sleep to inject a stall. detail is the
// work-item identity the firing site supplied.
type Action func(p Point, detail string) error

var (
	armed   atomic.Bool
	mu      sync.Mutex
	actions map[Point]Action
)

// Enable arms a failpoint with an action. Test-only: production code
// never calls Enable, so Fire's disabled fast path is the only cost the
// shipped pipeline pays. Call Reset (typically via t.Cleanup) when the
// test is done.
func Enable(p Point, a Action) {
	mu.Lock()
	defer mu.Unlock()
	if actions == nil {
		actions = make(map[Point]Action)
	}
	actions[p] = a
	armed.Store(true)
}

// Disable disarms one failpoint.
func Disable(p Point) {
	mu.Lock()
	defer mu.Unlock()
	delete(actions, p)
	if len(actions) == 0 {
		armed.Store(false)
	}
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	actions = nil
	armed.Store(false)
}

// Fire triggers the failpoint: with nothing armed it returns nil after
// one atomic load; with an action armed for p it runs it and returns
// its error (the action may equally panic or sleep). Firing sites treat
// a non-nil error exactly like a failure of the operation the failpoint
// guards.
func Fire(p Point, detail string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	a := actions[p]
	mu.Unlock()
	if a == nil {
		return nil
	}
	return a(p, detail)
}

// Panic returns an action that panics with v.
func Panic(v any) Action {
	return func(Point, string) error { panic(v) }
}

// Error returns an action that injects err.
func Error(err error) Action {
	return func(p Point, detail string) error {
		return fmt.Errorf("faultinject: %s(%s): %w", p, detail, err)
	}
}

// Sleep returns an action that stalls the firing goroutine for d.
func Sleep(d time.Duration) Action {
	return func(Point, string) error { time.Sleep(d); return nil }
}

// Match wraps an action so it fires only when the firing site's detail
// equals want — e.g. aim a panic at one target of a 16-target stream.
func Match(want string, a Action) Action {
	return func(p Point, detail string) error {
		if detail != want {
			return nil
		}
		return a(p, detail)
	}
}

// OnCall wraps an action so it fires only on the nth call (1-based) of
// the wrapped failpoint, counting every call regardless of detail.
// Under concurrency the nth call is scheduling-dependent; prefer Match
// when the firing site supplies a detail.
func OnCall(n int64, a Action) Action {
	var calls atomic.Int64
	return func(p Point, detail string) error {
		if calls.Add(1) != n {
			return nil
		}
		return a(p, detail)
	}
}

// Chain combines actions: each fires in order until one returns a
// non-nil error (or panics/stalls).
func Chain(as ...Action) Action {
	return func(p Point, detail string) error {
		for _, a := range as {
			if err := a(p, detail); err != nil {
				return err
			}
		}
		return nil
	}
}
