package shard

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/breaker"
	"repro/internal/model"
	"repro/internal/scan"
)

// PartitionModels applies the router to the models' names, returning
// per-shard ascending global index lists (the index argument for
// NewCoordinator, and the slice selector for shard-serve).
func PartitionModels(models []*model.CSTBBS, r Router) [][]int {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return r.Partition(names)
}

// sliceModels materializes one shard's slice in local (ascending
// global) order.
func sliceModels(models []*model.CSTBBS, part []int) []*model.CSTBBS {
	out := make([]*model.CSTBBS, len(part))
	for local, g := range part {
		out[local] = models[g]
	}
	return out
}

// ShardModels returns the slice of models shard i of r would hold —
// what a `scaguard shard-serve --shard-index i` process serves. Both
// sides run this over the same repository, so they agree on every
// slice without coordination.
func ShardModels(models []*model.CSTBBS, r Router, i int) []*model.CSTBBS {
	return sliceModels(models, PartitionModels(models, r)[i])
}

// SplitReplicas parses one shard-address argument into its replica
// addresses: "host1:7070|host2:7070" names two interchangeable backends
// for the same partition, attempted in the order written. A plain
// address is a single-replica group. Whitespace around separators is
// tolerated; empty elements are rejected.
func SplitReplicas(addr string) ([]string, error) {
	parts := strings.Split(addr, "|")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("shard: empty replica address in %q", addr)
		}
		out = append(out, p)
	}
	return out, nil
}

// remoteReplicas builds a client for every replica of every partition
// of models across addrs: one "|"-separated replica group per address,
// in router order. Each client expects its partition's entry count,
// rcfg.Version and the partition's content fingerprint, so a stale
// backend fails Check.
func remoteReplicas(models []*model.CSTBBS, addrs []string, sem scan.Semantics, rcfg RemoteConfig) (parts [][]int, groups [][]*RemoteShard, err error) {
	if len(addrs) == 0 {
		return nil, nil, fmt.Errorf("shard: remote fleet needs at least one address")
	}
	parts = PartitionModels(models, Router{Shards: len(addrs)})
	groups = make([][]*RemoteShard, len(parts))
	for i, part := range parts {
		reps, err := SplitReplicas(addrs[i])
		if err != nil {
			return nil, nil, err
		}
		slice := sliceHash(sliceModels(models, part))
		for _, a := range reps {
			rs := NewRemoteShard(a, len(part), sem, rcfg)
			rs.ExpectContent(rcfg.Version, slice)
			groups[i] = append(groups[i], rs)
		}
	}
	return parts, groups, nil
}

// CheckFleet handshakes every replica of every shard address (Check
// against the partition of models it should serve: alive, the agreed
// entry count and the partition's content fingerprint). It returns the
// names of unhealthy replicas, empty when the whole fleet is healthy,
// and a non-nil error only when some partition has no healthy replica
// at all — the condition under which scans would degrade to partial
// results. A fleet whose dead or stale replicas are redundant starts
// fine: failover covers them, and the returned names let the caller
// warn the operator.
func CheckFleet(ctx context.Context, models []*model.CSTBBS, addrs []string) (unhealthy []string, err error) {
	_, groups, err := remoteReplicas(models, addrs, scan.Semantics{}, RemoteConfig{})
	if err != nil {
		return nil, err
	}
	var dark []string
	for i, g := range groups {
		healthy := 0
		for _, rs := range g {
			if rs.Check(ctx) != nil {
				unhealthy = append(unhealthy, rs.Name())
			} else {
				healthy++
			}
		}
		if healthy == 0 {
			dark = append(dark, addrs[i])
		}
	}
	if len(dark) > 0 {
		return unhealthy, fmt.Errorf("shard: no healthy replica for shard group(s) %s", strings.Join(dark, ", "))
	}
	return unhealthy, nil
}

// NewRemoteCoordinator builds a coordinator whose shards live behind
// the given addresses, one replica group per shard in router order
// (Router{Shards: len(addrs)}). Each address may name several
// "|"-separated replicas serving the same partition — scans fail over
// between them (see ReplicaGroup), with per-replica circuit breakers
// tuned by ccfg.Breaker and, when ccfg.ProbeInterval is set, a
// background health prober re-admitting recovered backends (stop it
// with Coordinator.Close). sem is the scan semantics every remote
// request carries. rcfg.Version plus each partition's content
// fingerprint become the replicas' health expectation, so a stale
// backend probes unhealthy. No connection is made until the first
// scan: a dead address degrades scans rather than failing construction
// — call CheckFleet to handshake eagerly.
func NewRemoteCoordinator(models []*model.CSTBBS, addrs []string, sem scan.Semantics, rcfg RemoteConfig, ccfg Config) (*Coordinator, error) {
	parts, groups, err := remoteReplicas(models, addrs, sem, rcfg)
	if err != nil {
		return nil, err
	}
	gcfg := GroupConfig{AttemptTimeout: ccfg.AttemptTimeout, Breaker: ccfg.Breaker, Telemetry: ccfg.Telemetry}
	shards := make([]Shard, len(groups))
	var probes []breaker.Probe
	for i, reps := range groups {
		replicas := make([]Shard, len(reps))
		for j, rs := range reps {
			replicas[j] = rs
		}
		g, err := NewReplicaGroup(replicas, gcfg)
		if err != nil {
			return nil, err
		}
		shards[i] = g
		if ccfg.ProbeInterval > 0 {
			for j, rs := range reps {
				probes = append(probes, breaker.Probe{
					Name:    rs.Name(),
					Breaker: g.Breakers()[j],
					Check:   rs.Check,
				})
			}
		}
	}
	c, err := NewCoordinator(shards, parts, ccfg)
	if err != nil {
		return nil, err
	}
	if len(probes) > 0 {
		c.prober = breaker.NewProber(ccfg.ProbeInterval, probes)
		c.prober.Start()
	}
	return c, nil
}
