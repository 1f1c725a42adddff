// Package graph provides the directed-graph algorithms behind SCAGuard's
// attack-relevant graph construction (Algorithm 1 of the paper): DFS
// back-edge elimination, simple-path enumeration that avoids a set of
// excluded interior nodes, and Prim's algorithm for maximum spanning
// trees over a weighted undirected view of the path graph.
//
// Nodes are identified by uint64 keys (the pipeline uses basic-block
// leader addresses). A Digraph is immutable: New freezes a node list and
// an edge list into compressed sparse rows over dense node indices, and
// every algorithm walks those rows directly. All algorithms are
// deterministic: nodes are visited in ascending id order, successor
// lists keep the order of the edge list and ties break on the smaller
// node id.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Digraph is an immutable directed graph over uint64 node ids, stored
// in compressed sparse row form over dense node indices (positions in
// ascending id order). Create with New.
type Digraph struct {
	ids []uint64 // dense index -> node id, ascending
	// Node u's successors are tgt[off[u]:off[u+1]] (dense) and
	// succ[off[u]:off[u+1]] (ids), in edge-list order.
	off, tgt []int32
	succ     []uint64
	// Node v's predecessors are pred[poff[v]:poff[v+1]], ascending.
	poff []int32
	pred []uint64
}

// Edge is a directed edge.
type Edge struct{ From, To uint64 }

// New freezes the graph with the given nodes and edges. Edge endpoints
// missing from nodes are added, a repeated edge keeps only its first
// occurrence, and every node's successors keep the order of edges.
func New(nodes []uint64, edges []Edge) *Digraph {
	ids := make([]uint64, 0, len(nodes)+2*len(edges))
	ids = append(ids, nodes...)
	for _, e := range edges {
		ids = append(ids, e.From, e.To)
	}
	slices.Sort(ids)
	ids = slices.Clip(slices.Compact(ids))
	g := &Digraph{ids: ids}
	n, m := len(ids), len(edges)

	ints := make([]int32, 3*(n+1)+m)
	g.off, g.poff = ints[:n+1:n+1], ints[n+1:2*(n+1):2*(n+1)]
	seen, tgt := ints[2*(n+1):3*(n+1)], ints[3*(n+1):]
	// Successors: a stable counting sort of the edges by source, seen
	// serving as the fill cursors.
	for _, e := range edges {
		g.off[g.index(e.From)+1]++
	}
	for u := range n {
		g.off[u+1] += g.off[u]
	}
	copy(seen, g.off)
	for _, e := range edges {
		f := g.index(e.From)
		tgt[seen[f]] = g.index(e.To)
		seen[f]++
	}
	// Drop repeated edges in place: seen[v] is u+1 once u's list holds v.
	clear(seen)
	w, begin := int32(0), int32(0)
	for u := range n {
		end := g.off[u+1]
		g.off[u] = w
		for _, v := range tgt[begin:end] {
			if seen[v] != int32(u)+1 {
				seen[v] = int32(u) + 1
				tgt[w] = v
				w++
			}
		}
		begin = end
	}
	g.off[n] = w
	g.tgt = tgt[:w:w]

	// Predecessors: the transpose, filled source by source.
	adj := make([]uint64, 2*w)
	g.succ, g.pred = adj[:w:w], adj[w:]
	for e, v := range g.tgt {
		g.succ[e] = ids[v]
		g.poff[v+1]++
	}
	for v := range n {
		g.poff[v+1] += g.poff[v]
	}
	copy(seen, g.poff)
	for u := range n {
		for _, v := range g.tgt[g.off[u]:g.off[u+1]] {
			g.pred[seen[v]] = ids[u]
			seen[v]++
		}
	}
	return g
}

// index returns the dense index of node n, or -1 when n is absent.
func (g *Digraph) index(n uint64) int32 {
	if i, ok := slices.BinarySearch(g.ids, n); ok {
		return int32(i)
	}
	return -1
}

// Succs returns the successor list of n in edge-list order (do not
// mutate).
func (g *Digraph) Succs(n uint64) []uint64 {
	u := g.index(n)
	if u < 0 {
		return nil
	}
	return g.succ[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// Preds returns the predecessor list of n in ascending order (do not
// mutate).
func (g *Digraph) Preds(n uint64) []uint64 {
	v := g.index(n)
	if v < 0 {
		return nil
	}
	return g.pred[g.poff[v]:g.poff[v+1]:g.poff[v+1]]
}

// Nodes returns all node ids in ascending order.
func (g *Digraph) Nodes() []uint64 { return slices.Clone(g.ids) }

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return len(g.ids) }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int { return len(g.tgt) }

// Edges returns every edge, ordered by (From, To) for determinism.
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, 0, len(g.tgt))
	for u, from := range g.ids {
		for _, to := range g.succ[g.off[u]:g.off[u+1]] {
			out = append(out, Edge{from, to})
		}
	}
	slices.SortFunc(out, compareEdges)
	return out
}

// compareEdges orders edges by (From, To).
func compareEdges(a, b Edge) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}

// String summarizes the graph for debugging.
func (g *Digraph) String() string {
	return fmt.Sprintf("digraph{%d nodes, %d edges}", g.NumNodes(), g.NumEdges())
}

// PathGraph builds the weighted path graph G' of Algorithm 1 (lines
// 1-5). It drops the back edges of a DFS of g that starts at root and
// then covers the remaining nodes in ascending order; the rest of g is
// acyclic. Then for every ordered pair (vi, vj) of distinct nodes, vi
// and vj taken in the order of nodes, it enumerates the simple paths
// from vi to vj whose interior avoids every node of nodes, and returns
// one edge per path in enumeration order, weighted by weight(path).
// Nodes absent from g have no paths, and a repeated node counts once,
// at its first position. maxPaths bounds the paths of one pair and
// maxLen their length in nodes, endpoints included (0 means unlimited
// for either).
//
// The enumeration never extends a path that cannot reach its
// destination within maxLen nodes, so the work per pair is bounded by
// roughly maxPaths·maxLen·outdegree, however many dead-end prefixes the
// graph holds.
//
// Every returned Path is a capacity-limited window of one shared
// backing array; the paths are never written after PathGraph returns.
func (g *Digraph) PathGraph(root uint64, nodes []uint64, maxPaths, maxLen int, weight func(path []uint64) float64) []WEdge {
	n, m, k := len(g.ids), len(g.tgt), len(nodes)
	bools := make([]bool, m+3*n)
	ints := make([]int32, 4*n+k)
	w := &pathWalker{
		g:        g,
		back:     bools[:m],
		post:     ints[:0:n],
		path:     ints[n : n : 2*n],
		dist:     ints[2*n : 3*n],
		maxPaths: maxPaths,
		maxLen:   maxLen,
		weight:   weight,
	}
	visited, done, excluded := bools[m:m+n], bools[m+n:m+2*n], bools[m+2*n:]
	if r := g.index(root); r >= 0 {
		w.dfs(r, visited, done)
	}
	for u := range n {
		if !visited[u] {
			w.dfs(int32(u), visited, done)
		}
	}
	// at[i] is the dense index of nodes[i], or -1 when it is absent or
	// repeats an earlier node; pos[u] is node u's position in nodes.
	pos, at := ints[3*n:4*n], ints[4*n:]
	for i, v := range nodes {
		if u := g.index(v); u >= 0 && !excluded[u] {
			excluded[u], pos[u], at[i] = true, int32(i), u
		} else {
			at[i] = -1
		}
	}

	// Destinations outermost, so each distance row is computed once; a
	// stable sort by source position then restores the (vi, vj) order.
	for _, dst := range at {
		if dst < 0 {
			continue
		}
		w.distances(dst, excluded)
		for _, src := range at {
			if src >= 0 && src != dst {
				w.pair(src, dst)
			}
		}
	}
	slices.SortStableFunc(w.edges, func(a, b WEdge) int {
		return cmp.Compare(pos[g.index(a.From)], pos[g.index(b.From)])
	})
	return w.edges
}

// pathWalker enumerates the simple paths of a Digraph minus its back
// edges. Its scratch (the DFS finishing order, the current path, the
// distances to the current destination) and its output arena serve
// every pair query of one PathGraph call.
type pathWalker struct {
	g                *Digraph
	back             []bool  // per edge index: a DFS back edge, never walked
	post             []int32 // DFS finishing order
	dist             []int32
	path             []int32
	dst              int32
	maxPaths, maxLen int
	found            int // paths emitted for the current pair
	weight           func([]uint64) float64
	arena            []uint64
	edges            []WEdge
}

// unreachable is the distance of a node with no usable path to the
// destination.
const unreachable = math.MaxInt32

// dfs marks the back edges reachable from u (edges into a node visited
// but not done: still on the DFS stack) and appends each node to post
// as it finishes. Every other edge u→v has v finish before u, so post
// lists the acyclic remainder of the graph in reverse topological
// order.
func (w *pathWalker) dfs(u int32, visited, done []bool) {
	g := w.g
	visited[u] = true
	for e := g.off[u]; e < g.off[u+1]; e++ {
		switch v := g.tgt[e]; {
		case !visited[v]:
			w.dfs(v, visited, done)
		case !done[v]:
			w.back[e] = true
		}
	}
	done[u] = true
	w.post = append(w.post, u)
}

// distances fills w.dist with every node's fewest hops to dst over the
// walked edges without passing through an excluded node: dist[dst] is 0
// and an excluded or cut-off node is unreachable. Walking post, each
// node's successors are final before the node itself.
func (w *pathWalker) distances(dst int32, excluded []bool) {
	g, dist := w.g, w.dist
	for _, u := range w.post {
		d := int32(unreachable)
		switch {
		case u == dst:
			d = 0
		case !excluded[u]:
			for e := g.off[u]; e < g.off[u+1]; e++ {
				if !w.back[e] && dist[g.tgt[e]] < d-1 {
					d = dist[g.tgt[e]] + 1
				}
			}
		}
		dist[u] = d
	}
}

// pair appends an edge for every simple path from src to dst; w.dist
// must hold dst's distances.
func (w *pathWalker) pair(src, dst int32) {
	w.dst, w.found = dst, 0
	w.path = append(w.path[:0], src)
	w.walk(src)
}

// walk extends the current path, which ends at u; it returns false once
// the path budget is spent. It follows a successor v only when a path
// through v reaches dst within maxLen nodes: the walked graph is
// acyclic, so such a path never meets the current one, and every prefix
// walked ends in an emitted path (or in the spent budget).
func (w *pathWalker) walk(u int32) bool {
	g := w.g
	for e := g.off[u]; e < g.off[u+1]; e++ {
		if w.back[e] {
			continue
		}
		v := g.tgt[e]
		if v == w.dst {
			// The path to v has len(path)+1 nodes.
			if w.maxLen <= 0 || len(w.path) < w.maxLen {
				w.emit()
				if w.maxPaths > 0 && w.found >= w.maxPaths {
					return false
				}
			}
			continue
		}
		// Through v, the shortest path to dst has len(path)+1+dist[v] nodes.
		d := w.dist[v]
		if d == unreachable || (w.maxLen > 0 && len(w.path)+1+int(d) > w.maxLen) {
			continue
		}
		w.path = append(w.path, v)
		ok := w.walk(v)
		w.path = w.path[:len(w.path)-1]
		if !ok {
			return false
		}
	}
	return true
}

// emit records the current path extended by dst.
func (w *pathWalker) emit() {
	start := len(w.arena)
	for _, u := range w.path {
		w.arena = append(w.arena, w.g.ids[u])
	}
	w.arena = append(w.arena, w.g.ids[w.dst])
	p := w.arena[start:len(w.arena):len(w.arena)]
	e := WEdge{From: p[0], To: p[len(p)-1], Path: p}
	if w.weight != nil {
		e.Weight = w.weight(p)
	}
	w.edges = append(w.edges, e)
	w.found++
}
