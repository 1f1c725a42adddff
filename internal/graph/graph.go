// Package graph provides the directed-graph algorithms behind SCAGuard's
// attack-relevant graph construction (Algorithm 1 of the paper): DFS
// back-edge elimination, simple-path enumeration that avoids a set of
// excluded interior nodes, and Prim's algorithm for maximum spanning
// trees over a weighted undirected view of the path graph.
//
// Nodes are identified by uint64 keys (the pipeline uses basic-block
// leader addresses). All algorithms are deterministic: neighbor lists
// keep insertion order and ties break on the smaller node id.
//
// The traversals behind Algorithm 1 (back-edge classification and
// simple-path enumeration) do not walk the Digraph's maps: they take a
// read-only snapshot of it over dense node indices (see csr) and walk
// that, with one set of scratch buffers for every path query.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Digraph is a directed graph over uint64 node ids. Create with New.
type Digraph struct {
	nodes map[uint64]int32 // node id -> position in order
	succ  map[uint64][]uint64
	pred  map[uint64][]uint64
	order []uint64 // node insertion order, for deterministic iteration
	// spare is unused room the adjacency lists grow into (see push), so
	// a graph's lists share a few allocations instead of one per list.
	spare []uint64
}

// New returns an empty directed graph.
func New() *Digraph {
	return &Digraph{
		nodes: make(map[uint64]int32),
		succ:  make(map[uint64][]uint64),
		pred:  make(map[uint64][]uint64),
	}
}

// AddNode inserts a node; inserting an existing node is a no-op.
func (g *Digraph) AddNode(n uint64) {
	if _, ok := g.nodes[n]; ok {
		return
	}
	g.nodes[n] = int32(len(g.order))
	g.order = append(g.order, n)
}

// AddEdge inserts the directed edge from -> to, adding missing endpoints.
// Duplicate edges are ignored.
func (g *Digraph) AddEdge(from, to uint64) {
	g.AddNode(from)
	g.AddNode(to)
	for _, s := range g.succ[from] {
		if s == to {
			return
		}
	}
	g.succ[from] = g.push(g.succ[from], to)
	g.pred[to] = g.push(g.pred[to], from)
}

// push appends v to the adjacency list s. A full list moves to a
// window of twice its capacity carved from spare; the windows are
// capacity-limited, so lists never grow into each other.
func (g *Digraph) push(s []uint64, v uint64) []uint64 {
	if len(s) == cap(s) {
		c := max(2, 2*cap(s))
		if len(g.spare) < c {
			g.spare = make([]uint64, max(64, c))
		}
		s = append(g.spare[:0:c], s...)
		g.spare = g.spare[c:]
	}
	return append(s, v)
}

// RemoveEdge deletes the directed edge from -> to if present.
func (g *Digraph) RemoveEdge(from, to uint64) {
	g.succ[from] = removeOne(g.succ[from], to)
	g.pred[to] = removeOne(g.pred[to], from)
}

func removeOne(s []uint64, v uint64) []uint64 {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// HasNode reports whether n is in the graph.
func (g *Digraph) HasNode(n uint64) bool {
	_, ok := g.nodes[n]
	return ok
}

// HasEdge reports whether the edge from -> to exists.
func (g *Digraph) HasEdge(from, to uint64) bool {
	for _, s := range g.succ[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Succs returns the successor list of n (do not mutate).
func (g *Digraph) Succs(n uint64) []uint64 { return g.succ[n] }

// Preds returns the predecessor list of n (do not mutate).
func (g *Digraph) Preds(n uint64) []uint64 { return g.pred[n] }

// Nodes returns all node ids in insertion order.
func (g *Digraph) Nodes() []uint64 {
	out := make([]uint64, len(g.order))
	copy(out, g.order)
	return out
}

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// Edge is a directed edge.
type Edge struct{ From, To uint64 }

// Edges returns every edge, ordered by (From, To) for determinism.
func (g *Digraph) Edges() []Edge {
	var out []Edge
	for _, from := range g.order {
		for _, to := range g.succ[from] {
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

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := New()
	for _, n := range g.order {
		c.AddNode(n)
	}
	for _, from := range g.order {
		for _, to := range g.succ[from] {
			c.AddEdge(from, to)
		}
	}
	return c
}

// String summarizes the graph for debugging.
func (g *Digraph) String() string {
	return fmt.Sprintf("digraph{%d nodes, %d edges}", g.NumNodes(), g.NumEdges())
}

// BackEdges returns the back edges discovered by a DFS from root
// (edges into a node currently on the DFS stack). Nodes unreachable from
// root are then explored from the remaining nodes in insertion order, so
// every edge of the graph is classified. This is the cycle-elimination
// step of Algorithm 1 line 1.
func (g *Digraph) BackEdges(root uint64) []Edge {
	s := g.snapshot(root, true)
	var back []Edge
	for u := range s.ids {
		for e := s.off[u]; e < s.off[u+1]; e++ {
			if s.back[e] {
				back = append(back, Edge{s.ids[u], s.ids[s.tgt[e]]})
			}
		}
	}
	slices.SortFunc(back, compareEdges)
	return back
}

// RemoveBackEdges returns a copy of g with every DFS back edge (rooted at
// root) removed. The result is acyclic.
func (g *Digraph) RemoveBackEdges(root uint64) *Digraph {
	s := g.snapshot(root, true)
	c := New()
	for _, n := range s.ids {
		c.AddNode(n)
	}
	for u, from := range s.ids {
		for e := s.off[u]; e < s.off[u+1]; e++ {
			if !s.back[e] {
				c.AddEdge(from, s.ids[s.tgt[e]])
			}
		}
	}
	return c
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Digraph) IsAcyclic() bool {
	indeg := make(map[uint64]int, len(g.nodes))
	for _, n := range g.order {
		indeg[n] = len(g.pred[n])
	}
	queue := make([]uint64, 0, len(g.nodes))
	for _, n := range g.order {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, v := range g.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return seen == len(g.nodes)
}

// Reachable returns the set of nodes reachable from start (including
// start itself when present in the graph).
func (g *Digraph) Reachable(start uint64) map[uint64]bool {
	out := make(map[uint64]bool)
	if !g.HasNode(start) {
		return out
	}
	stack := []uint64{start}
	out[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if !out[v] {
				out[v] = true
				stack = append(stack, v)
			}
		}
	}
	return out
}

// SimplePaths enumerates every simple path from src to dst whose interior
// nodes avoid the excluded set (src and dst themselves may be in it).
// Paths include both endpoints. maxPaths bounds the enumeration (0 means
// unlimited); maxLen bounds path length in nodes, endpoints included (0
// means unlimited). On an acyclic graph the enumeration always
// terminates; the bounds guard against combinatorial blowups on dense
// graphs.
//
// This is the P_{i,j} computation of Algorithm 1 line 4 for one pair;
// PathGraph runs it for every pair of a node set at once.
func (g *Digraph) SimplePaths(src, dst uint64, excluded map[uint64]bool, maxPaths, maxLen int) [][]uint64 {
	var out [][]uint64
	si, ok := g.nodes[src]
	di, ok2 := g.nodes[dst]
	if !ok || !ok2 {
		return out
	}
	w := g.snapshot(0, false).walker(maxPaths, maxLen, nil)
	for n, ex := range excluded {
		if i, ok := g.nodes[n]; ok && ex {
			w.excluded[i] = true
		}
	}
	w.pair(si, di)
	for _, e := range w.edges {
		out = append(out, e.Path)
	}
	return out
}

// PathGraph builds the weighted path graph G' of Algorithm 1 (lines
// 1-5): it drops the DFS back edges of g rooted at root (BackEdges), then
// for every ordered pair (vi, vj) of distinct nodes, vi and vj taken in
// the order of nodes, enumerates the simple paths from vi to vj that
// pass through no other node of nodes — SimplePaths with nodes as the
// excluded set and the same bounds — and returns one edge per path in
// enumeration order, weighted by weight(path). Nodes absent from g have
// no paths.
//
// Every returned Path is a capacity-limited window of one shared
// backing array; the paths are never written after PathGraph returns.
func (g *Digraph) PathGraph(root uint64, nodes []uint64, maxPaths, maxLen int, weight func(path []uint64) float64) []WEdge {
	w := g.snapshot(root, true).walker(maxPaths, maxLen, weight)
	for _, n := range nodes {
		if i, ok := g.nodes[n]; ok {
			w.excluded[i] = true
		}
	}
	for _, vi := range nodes {
		si, ok := g.nodes[vi]
		if !ok {
			continue
		}
		for _, vj := range nodes {
			if di, ok := g.nodes[vj]; ok && vi != vj {
				w.pair(si, di)
			}
		}
	}
	return w.edges
}

// csr is a read-only snapshot of a Digraph in compressed sparse row
// form over dense node indices (positions in insertion order): node u's
// successors are tgt[off[u]:off[u+1]], in insertion order. When taken
// for an acyclic walk, back marks the DFS back edges per edge index and
// every traversal skips them.
type csr struct {
	ids  []uint64 // dense index -> node id; the Digraph's own order slice
	off  []int32
	tgt  []int32
	back []bool // per edge index; nil when back edges are kept
}

// snapshot copies g's adjacency into a csr, classifying the back edges
// of a DFS rooted at root when acyclic is set.
func (g *Digraph) snapshot(root uint64, acyclic bool) *csr {
	n := len(g.order)
	m := 0
	for _, id := range g.order {
		m += len(g.succ[id])
	}
	ints := make([]int32, n+1+m)
	s := &csr{ids: g.order, off: ints[: n+1 : n+1], tgt: ints[n+1:]}
	e := int32(0)
	for u, id := range g.order {
		s.off[u] = e
		for _, v := range g.succ[id] {
			s.tgt[e] = g.nodes[v]
			e++
		}
	}
	s.off[n] = e
	if acyclic {
		s.back = make([]bool, m)
		color := make([]uint8, n)
		if r, ok := g.nodes[root]; ok {
			s.dfs(r, color)
		}
		for u := range color {
			if color[u] == white {
				s.dfs(int32(u), color)
			}
		}
	}
	return s
}

// DFS colors.
const (
	white uint8 = iota
	gray
	black
)

// dfs marks the back edges reachable from u.
func (s *csr) dfs(u int32, color []uint8) {
	color[u] = gray
	for e := s.off[u]; e < s.off[u+1]; e++ {
		switch v := s.tgt[e]; color[v] {
		case white:
			s.dfs(v, color)
		case gray:
			s.back[e] = true
		}
	}
	color[u] = black
}

// pathWalker enumerates simple paths over a csr. Its scratch (the
// on-path and excluded marks, the current path) and its output arena
// serve any number of pair queries.
type pathWalker struct {
	s                *csr
	onPath, excluded []bool
	path             []int32
	src, dst         int32
	maxPaths, maxLen int
	found            int // paths emitted for the current pair
	weight           func([]uint64) float64
	arena            []uint64
	edges            []WEdge
}

func (s *csr) walker(maxPaths, maxLen int, weight func([]uint64) float64) *pathWalker {
	n := len(s.ids)
	marks := make([]bool, 2*n)
	return &pathWalker{
		s:        s,
		onPath:   marks[:n:n],
		excluded: marks[n:],
		path:     make([]int32, 0, n),
		maxPaths: maxPaths,
		maxLen:   maxLen,
		weight:   weight,
	}
}

// pair appends an edge for every simple path from src to dst.
func (w *pathWalker) pair(src, dst int32) {
	w.src, w.dst, w.found = src, dst, 0
	w.onPath[src] = true
	w.path = append(w.path[:0], src)
	w.walk(src)
	w.onPath[src] = false
}

// walk extends the current path, which ends at u; it returns false once
// the path budget is spent.
func (w *pathWalker) walk(u int32) bool {
	s := w.s
	for e := s.off[u]; e < s.off[u+1]; e++ {
		if s.back != nil && s.back[e] {
			continue
		}
		v := s.tgt[e]
		if v == w.dst {
			// The path to v has len(path)+1 nodes.
			if (u != w.src || v != w.src) && (w.maxLen <= 0 || len(w.path) < w.maxLen) {
				w.emit()
				if w.maxPaths > 0 && w.found >= w.maxPaths {
					return false
				}
			}
			continue
		}
		// Through v, a path reaches dst with at least len(path)+2 nodes.
		if w.onPath[v] || w.excluded[v] || (w.maxLen > 0 && len(w.path)+2 > w.maxLen) {
			continue
		}
		w.onPath[v] = true
		w.path = append(w.path, v)
		ok := w.walk(v)
		w.path = w.path[:len(w.path)-1]
		w.onPath[v] = false
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
		w.arena = append(w.arena, w.s.ids[u])
	}
	w.arena = append(w.arena, w.s.ids[w.dst])
	p := w.arena[start:len(w.arena):len(w.arena)]
	e := WEdge{From: p[0], To: p[len(p)-1], Path: p}
	if w.weight != nil {
		e.Weight = w.weight(p)
	}
	w.edges = append(w.edges, e)
	w.found++
}
