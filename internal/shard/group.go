package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/breaker"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// A ReplicaGroup serves one partition of the repository from R
// interchangeable backends. Every replica holds the same slice, so any
// one of them can answer a scan bit-identically; the group's job is to
// make partition coverage survive backend death. Without replication a
// dead shard-serve silently drops its partition's attack models out of
// every verdict — an availability failure becomes a false-negative
// security failure. With a group, a scan fails over to the next
// replica on error or timeout and stays *complete* as long as at least
// one replica lives; *PartialError degradation is reserved for a whole
// group going dark.
//
// Each replica carries its own circuit breaker (internal/breaker):
// after a few consecutive failures the scan path stops attempting the
// corpse and skips straight to the next replica — no more per-scan
// timeout tax — while the breaker's half-open probes (and the optional
// background prober, see Config.ProbeInterval) re-admit the backend
// once it recovers.
//
// Replicas are attempted in index order, so replica 0 is the preferred
// backend of a healthy group and the failover order is deterministic.
type ReplicaGroup struct {
	name     string
	replicas []Shard
	brks     []*breaker.Breaker
	cfg      GroupConfig
}

// GroupConfig tunes a replica group.
type GroupConfig struct {
	// AttemptTimeout, when positive, bounds each replica attempt: a
	// replica slower than this fails its attempt and the scan fails
	// over to the next one. Without it a slow first replica can eat the
	// whole per-shard budget (Config.ShardTimeout) and leave no time
	// for failover.
	AttemptTimeout time.Duration
	// Breaker tunes the per-replica circuit breakers (zero value =
	// breaker defaults; Threshold -1 disables breaking entirely, every
	// scan then attempts every replica in order).
	Breaker breaker.Settings
	// Telemetry counts failovers and breaker transitions.
	Telemetry *telemetry.Collector
}

// NewReplicaGroup builds a group over replicas, which must all hold
// the same number of entries (they are presumed to serve the same
// slice; the differential and chaos suites enforce the presumption).
// The group's Name is the replicas' names joined with "|" — for a
// single-replica group it is the replica's own name, so an unreplicated
// fleet reads identically in errors and telemetry.
func NewReplicaGroup(replicas []Shard, cfg GroupConfig) (*ReplicaGroup, error) {
	if len(replicas) == 0 {
		return nil, errors.New("shard: replica group needs at least one replica")
	}
	names := make([]string, len(replicas))
	for i, r := range replicas {
		names[i] = r.Name()
		if r.Len() != replicas[0].Len() {
			return nil, fmt.Errorf("shard: replica %s holds %d entries, replica %s holds %d — replicas of a group must serve the same slice",
				r.Name(), r.Len(), replicas[0].Name(), replicas[0].Len())
		}
	}
	g := &ReplicaGroup{name: strings.Join(names, "|"), replicas: replicas, cfg: cfg}
	g.brks = make([]*breaker.Breaker, len(replicas))
	for i, r := range replicas {
		g.brks[i] = breaker.New(r.Name(), cfg.Breaker, cfg.Telemetry)
	}
	return g, nil
}

// Name implements Shard.
func (g *ReplicaGroup) Name() string { return g.name }

// Len implements Shard (every replica serves the same slice).
func (g *ReplicaGroup) Len() int { return g.replicas[0].Len() }

// Breakers returns the per-replica circuit breakers, index-aligned
// with the replicas the group was built over — the prober and the
// telemetry gauges hang off these.
func (g *ReplicaGroup) Breakers() []*breaker.Breaker { return g.brks }

// Scan implements Shard: attempt replicas in order until one returns a
// complete slice result. A replica is passed over — one shard_failovers
// increment each — when its breaker is open (no attempt, no timeout
// paid) or when its attempt fails or exceeds AttemptTimeout. Only the
// caller's own context dying aborts the failover chain; and only when
// every replica has been passed over does the group fail, which the
// coordinator then surfaces as a *ShardError inside a *PartialError.
func (g *ReplicaGroup) Scan(ctx context.Context, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error) {
	tel := g.cfg.Telemetry
	var errs []error
	for i, r := range g.replicas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !g.brks[i].Allow() {
			// Known-dead (or mid-probe) backend: skip straight to the
			// next replica instead of re-paying its timeout.
			errs = append(errs, &ReplicaError{Replica: r.Name(), Err: g.brks[i].Deny()})
			tel.Inc(telemetry.ShardFailovers)
			continue
		}
		ms, err := g.attempt(ctx, r, bbs, cut)
		if err == nil {
			g.brks[i].Report(nil)
			return ms, nil
		}
		if ctx.Err() != nil {
			// The caller died mid-attempt; the failure says nothing
			// about the backend, so hand back any half-open probe slot
			// untouched and stop failing over.
			g.brks[i].ReleaseProbe()
			return nil, err
		}
		g.brks[i].Report(err)
		errs = append(errs, &ReplicaError{Replica: r.Name(), Err: err})
		tel.Inc(telemetry.ShardFailovers)
	}
	return nil, &GroupError{Group: g.name, Errs: errs}
}

// attempt runs one replica's scan under the per-attempt timeout and
// the shard.replica.rpc failpoint.
func (g *ReplicaGroup) attempt(ctx context.Context, r Shard, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error) {
	if err := faultinject.Fire(faultinject.ShardReplicaRPC, r.Name()); err != nil {
		return nil, err
	}
	if g.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.AttemptTimeout)
		defer cancel()
	}
	ms, err := r.Scan(ctx, bbs, cut)
	if err != nil {
		return nil, err
	}
	if len(ms) != r.Len() {
		return nil, fmt.Errorf("replica %s returned %d matches for %d entries", r.Name(), len(ms), r.Len())
	}
	return ms, nil
}

// ReplicaError is one replica's failure (or breaker refusal) within a
// group scan.
type ReplicaError struct {
	// Replica is the failing replica's Name.
	Replica string
	// Err is the underlying failure; errors.Is(err, breaker.ErrOpen)
	// distinguishes a breaker skip from an attempted failure.
	Err error
}

func (e *ReplicaError) Error() string {
	return fmt.Sprintf("replica %s: %v", e.Replica, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ReplicaError) Unwrap() error { return e.Err }

// GroupError reports a whole replica group down: every replica was
// passed over, so the group's partition is missing from the scan.
type GroupError struct {
	// Group is the group's Name ("addr1|addr2").
	Group string
	// Errs lists each replica's failure in attempt order.
	Errs []error
}

func (e *GroupError) Error() string {
	return fmt.Sprintf("shard: replica group %s: all %d replicas failed: %v",
		e.Group, len(e.Errs), errors.Join(e.Errs...))
}

// Unwrap exposes every replica failure to errors.Is/As.
func (e *GroupError) Unwrap() []error { return e.Errs }
