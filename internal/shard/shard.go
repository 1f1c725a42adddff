// Package shard partitions the attack-model repository across several
// scan engines and scans them as one: the scatter–gather layer that
// takes SCAGuard past a single machine's memory and core count. The
// paper's time-cost analysis (Section III-B3) already shows similarity
// comparison dominating end-to-end detection; once the repository
// grows past one host — many attack families, many PoC variants per
// family — a single scan.Engine caps both capacity and latency.
//
// The pieces:
//
//   - Router assigns repository entries to shards by rendezvous
//     (highest-random-weight) hashing over the entry name, so growing
//     from N to N+1 shards moves only ~1/(N+1) of the entries.
//   - Shard is the backend interface: RemoteShard (remote.go) speaks
//     HTTP/JSON to a Server (server.go) hosting a shard on another
//     machine, and a ReplicaGroup (group.go) fails over between
//     replicas of one partition — the one recovery path for a failed
//     RPC.
//   - Coordinator (coordinator.go) broadcasts one target to every
//     shard concurrently, merges the per-shard matches back into
//     globally-indexed order, and shares one scan.Cutoff across every
//     shard, so the running global best score reaches every pruned
//     scan as it improves: early abandoning works across shard
//     boundaries ("cutoff broadcast"). Remote shards receive the
//     improvements as pushes.
//
// Within one process a single scan.Engine already splits a scan across
// its workers, so sharding pays only across machines; see
// docs/SHARDING.md "When remote shards pay".
//
// Exact mode (Prune off everywhere) is bit-identical to a single
// engine's scan — same comparisons, same float operations — which the
// differential tests in this package enforce over loopback HTTP
// shards. A dead or slow shard degrades the scan to partial results
// plus a *PartialError instead of hanging it; see docs/SHARDING.md for
// the full design.
package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/scan"
)

// Router deterministically assigns repository entries to shards by
// rendezvous (highest-random-weight) hashing over the entry name:
// deterministic, independent of insertion order for a fixed name set,
// and rebalance-friendly (resizing from N to N+1 shards moves ~1/(N+1)
// of the entries). Both sides of a remote deployment — the coordinator
// and each `scaguard shard-serve` — run the same Router over the same
// entry list, so they agree on every shard's slice without talking.
type Router struct {
	// Shards is the shard count; values below 1 are treated as 1.
	Shards int
}

// Assign returns the shard index for one entry, identified by its name:
// the shard whose keyed hash of the name wins, ties breaking toward the
// lower shard index (deterministic).
func (r Router) Assign(name string) int {
	n := r.Shards
	if n <= 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	for s := 0; s < n; s++ {
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write([]byte{'/'})
		h.Write([]byte(strconv.Itoa(s)))
		if score := mix64(h.Sum64()); s == 0 || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer. The keyed FNV-1a sums of one name
// differ only through the shard index's last bytes, which barely reach
// the high bits that decide the ranking; without this avalanche step
// one shard wins far more than its share of names. Changing it moves
// entries between shards, so shard-serve processes and their clients
// must run the same version (the /healthz handshake refuses a mismatch).
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Partition maps a full entry list to per-shard global index lists.
// Each inner slice is ascending, so a shard's local order is the global
// order restricted to its entries.
func (r Router) Partition(names []string) [][]int {
	n := r.Shards
	if n < 1 {
		n = 1
	}
	parts := make([][]int, n)
	for i, name := range names {
		s := r.Assign(name)
		parts[s] = append(parts[s], i)
	}
	return parts
}

// Shard scores targets against one partition of the repository.
// Implementations must be safe for concurrent use by the coordinator.
type Shard interface {
	// Name identifies the shard in errors, telemetry and fault
	// injection (the address, for a remote shard).
	Name() string
	// Len returns the number of repository entries the shard holds.
	Len() int
	// Scan scores the target against every entry of the shard under
	// the shared pruning cutoff (ignored by exact-mode engines) and
	// returns matches indexed shard-locally (0..Len()-1). On error the
	// matches are discarded by the coordinator.
	Scan(ctx context.Context, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error)
}

// ShardError is one shard's failure within a scattered scan.
type ShardError struct {
	// Shard is the failing shard's Name.
	Shard string
	// Entries is how many repository entries the failure left unscanned.
	Entries int
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %s (%d entries): %v", e.Shard, e.Entries, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// PartialError reports a degraded scan: some shards failed, so the
// returned matches cover only the surviving shards' entries. Callers
// decide whether a partial verdict is acceptable; the matches returned
// alongside a *PartialError are exact for every entry they cover.
type PartialError struct {
	// Failed lists the failing shards.
	Failed []*ShardError
	// Missing is the total number of repository entries not scanned.
	Missing int
}

func (e *PartialError) Error() string {
	names := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		names[i] = f.Shard
	}
	return fmt.Sprintf("shard: partial scan: %d entries missing from failed shard(s) %s: %v",
		e.Missing, strings.Join(names, ","), e.Failed[0].Err)
}

// Unwrap exposes every shard failure to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		errs[i] = f
	}
	return errs
}
