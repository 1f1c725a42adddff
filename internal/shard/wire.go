package shard

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
)

// The HTTP/JSON wire format between RemoteShard and Server. Scores and
// cache-state occupancies are finite float64s, and Go's encoding/json
// emits the shortest decimal that round-trips exactly, so a remote scan
// can stay bit-identical to a local one: the differential tests compare
// with ==, not a tolerance. Infinity is not representable in JSON, so
// the cutoff travels as a *float64 with nil meaning "+Inf / no cutoff
// yet". The target travels in model.CSTBBS's JSON form, the one the
// saved repository uses.

// scanRequest is POST /scan: one target to score against the shard's
// whole slice. The scan semantics travel with the request as flat
// fields (newScanRequest and semantics convert), so the client's
// detector configuration decides them; the server memoizes one engine
// per distinct scan.Semantics. A "cascade" field sent by old clients is
// ignored: every pruned scan runs the lower-bound cascade.
type scanRequest struct {
	// ID names this scan for later POST /cutoff broadcasts ("" opts
	// out of broadcasting).
	ID     string       `json:"id"`
	Target model.CSTBBS `json:"target"`
	// Cutoff seeds the shard's pruning cutoff with the global best
	// distance known at send time (nil = none yet).
	Cutoff    *float64 `json:"cutoff,omitempty"`
	Prune     bool     `json:"prune"`
	Window    int      `json:"window"`
	ISWeight  float64  `json:"is_weight"`
	CSPWeight float64  `json:"csp_weight"`
	// The repository-index mode (scan.Config.Index and friends)
	// travels with the request like every other scan semantic: the
	// server builds and memoizes an indexed engine over its slice per
	// distinct configuration. Old servers ignore the fields (flat
	// scan, still exact); omitempty keeps old clients' requests
	// byte-identical.
	Index         bool `json:"index,omitempty"`
	IndexClusters int  `json:"index_clusters,omitempty"`
	IndexMax      int  `json:"index_max,omitempty"`
}

// wireMatch mirrors scan.Match with a shard-local index.
type wireMatch struct {
	Index  int     `json:"index"`
	Score  float64 `json:"score"`
	Pruned bool    `json:"pruned,omitempty"`
}

// scanResponse is the /scan reply: one match per shard entry in local
// order, plus the shard's final best exact distance (nil when the shard
// is empty) so the client can fold it into the shared cutoff for the
// benefit of shards still scanning.
type scanResponse struct {
	Matches []wireMatch `json:"matches"`
	Best    *float64    `json:"best,omitempty"`
}

// cutoffRequest is POST /cutoff: a mid-scan broadcast that the global
// best distance improved to Best.
type cutoffRequest struct {
	ID   string  `json:"id"`
	Best float64 `json:"best"`
}

// healthResponse is GET /healthz: the shard's view of its slice, so
// clients can cross-check the partition agreement before trusting it.
// Beyond the entry count it carries the serving repository's version
// and the slice's content fingerprint (sliceHash), so a
// coordinator can tell a live-but-stale replica from a healthy one
// (RemoteShard.ExpectContent). Zero/empty values mean "unknown" and
// skip the comparison, keeping old servers healthy under new clients.
type healthResponse struct {
	Entries int    `json:"entries"`
	Version uint64 `json:"version,omitempty"`
	Slice   string `json:"slice,omitempty"`
}

// newScanRequest builds the /scan request for one target under sem.
func newScanRequest(bbs *model.CSTBBS, sem scan.Semantics) scanRequest {
	return scanRequest{
		Target:        *bbs,
		Prune:         sem.Prune,
		Window:        sem.Sim.Window,
		ISWeight:      sem.Sim.ISWeight,
		CSPWeight:     sem.Sim.CSPWeight,
		Index:         sem.Index,
		IndexClusters: sem.IndexClusters,
		IndexMax:      sem.IndexMaxClusters,
	}
}

// semantics decodes the request's scan semantics in canonical form.
func (r scanRequest) semantics() scan.Semantics {
	return scan.Config{
		Prune:            r.Prune,
		Index:            r.Index,
		IndexClusters:    r.IndexClusters,
		IndexMaxClusters: r.IndexMax,
		Sim:              similarity.Options{Window: r.Window, ISWeight: r.ISWeight, CSPWeight: r.CSPWeight},
	}.Semantics()
}

// fromWireMatches validates and converts a /scan reply: exactly want
// matches, locally indexed 0..want-1 in order.
func fromWireMatches(ws []wireMatch, want int) ([]scan.Match, error) {
	if len(ws) != want {
		return nil, fmt.Errorf("shard: remote returned %d matches, want %d", len(ws), want)
	}
	out := make([]scan.Match, len(ws))
	for i, w := range ws {
		if w.Index != i {
			return nil, fmt.Errorf("shard: remote match %d carries local index %d", i, w.Index)
		}
		out[i] = scan.Match{Index: w.Index, Score: w.Score, Pruned: w.Pruned}
	}
	return out, nil
}
