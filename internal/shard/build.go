package shard

import (
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

// NewRemoteCoordinator builds a coordinator whose shards live behind
// the given addresses, one replica group per shard in router order
// (r.Shards is forced to len(addrs)). Each address may name several
// "|"-separated replicas serving the same partition — scans fail over
// between them (see ReplicaGroup), with per-replica circuit breakers
// tuned by ccfg.Breaker and, when ccfg.ProbeInterval is set, a
// background health prober re-admitting recovered backends (stop it
// with Coordinator.Close). scfg supplies the scan semantics every
// remote request carries (Prune, Sim); Workers and Cache are
// server-side concerns and ignored here. rcfg.Version plus each
// partition's content fingerprint become the replicas' health
// expectation, so a stale backend probes unhealthy. No connection is
// made until the first scan: a dead address degrades scans rather than
// failing construction — call (*RemoteShard).Check to handshake
// eagerly.
func NewRemoteCoordinator(models []*model.CSTBBS, addrs []string, r Router, scfg scan.Config, rcfg RemoteConfig, ccfg Config) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: remote coordinator needs at least one address")
	}
	r.Shards = len(addrs)
	parts := PartitionModels(models, r)
	gcfg := GroupConfig{AttemptTimeout: ccfg.AttemptTimeout, Breaker: ccfg.Breaker, Telemetry: ccfg.Telemetry}
	shards := make([]Shard, len(parts))
	var probes []breaker.Probe
	for i, part := range parts {
		reps, err := SplitReplicas(addrs[i])
		if err != nil {
			return nil, err
		}
		slice := sliceHash(sliceModels(models, part))
		replicas := make([]Shard, len(reps))
		for j, a := range reps {
			rs := NewRemoteShard(a, len(part), scfg, rcfg)
			rs.ExpectContent(rcfg.Version, slice)
			replicas[j] = rs
		}
		g, err := NewReplicaGroup(replicas, gcfg)
		if err != nil {
			return nil, err
		}
		shards[i] = g
		if ccfg.ProbeInterval > 0 {
			for j, rep := range g.Replicas() {
				probes = append(probes, breaker.Probe{
					Name:    rep.Name(),
					Breaker: g.Breakers()[j],
					Check:   rep.(*RemoteShard).Check,
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
