package shard

import (
	"context"
	"strconv"

	"repro/internal/model"
	"repro/internal/scan"
)

// LocalShard is the coordinator tests' fake backend: its own
// scan.Engine over its slice of the repository, scanned in-process
// under the shared cutoff. It lets the scatter–gather, replica-group
// and fault tests run without HTTP; the loopback servers cover the
// remote path.
type LocalShard struct {
	name string
	eng  *scan.Engine
}

// NewLocalShard builds an in-process shard over models with a private
// DistCache.
func NewLocalShard(name string, models []*model.CSTBBS, cfg scan.Config) *LocalShard {
	cfg.Cache = nil
	return &LocalShard{name: name, eng: scan.New(models, cfg)}
}

// Name implements Shard.
func (s *LocalShard) Name() string { return s.name }

// Len implements Shard.
func (s *LocalShard) Len() int { return s.eng.Len() }

// Scan implements Shard through the engine's shared-cutoff scan.
func (s *LocalShard) Scan(ctx context.Context, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error) {
	return s.eng.ScanCutoffCtx(ctx, bbs, cut)
}

// newLocalCoordinator partitions models across r.Shards local shards
// named "0", "1", ... (the names ShardScan failpoints match on).
func newLocalCoordinator(models []*model.CSTBBS, r Router, scfg scan.Config, ccfg Config) (*Coordinator, error) {
	parts := PartitionModels(models, r)
	shards := make([]Shard, len(parts))
	for i, part := range parts {
		shards[i] = NewLocalShard(strconv.Itoa(i), sliceModels(models, part), scfg)
	}
	return NewCoordinator(shards, parts, ccfg)
}
