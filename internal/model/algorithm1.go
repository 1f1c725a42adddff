package model

import "repro/internal/graph"

// BuildAttackGraph implements Algorithm 1 of the paper: given the CFG's
// digraph g with entry block entry, the identified attack-relevant
// blocks N and per-block HPC values, it
//
//  1. removes back edges to make the CFG loop-free,
//  2. for every pair of relevant blocks enumerates the CFG paths that do
//     not pass through any other relevant block, scoring each path by
//     the average HPC value of its interior blocks (MAX when the blocks
//     are directly connected),
//  3. computes a maximum spanning tree of the resulting weighted graph,
//  4. restores the labeled path of every chosen edge into the
//     attack-relevant graph G_A.
//
// The result connects all relevant blocks along the most attack-
// correlated control-flow paths, pulling in intermediate blocks that had
// no cache traffic themselves but are part of the attack's control flow.
func BuildAttackGraph(g *graph.Digraph, entry uint64, relevant []uint64, hpcByBB map[uint64]uint64, config Config) *graph.Digraph {
	config = config.withDefaults()
	ga := graph.New()
	for _, n := range relevant {
		ga.AddNode(n)
	}
	if len(relevant) < 2 {
		return ga
	}

	// Lines 1-5: eliminate cycles, then build the weighted path graph
	// G' from the CFG paths between relevant blocks that avoid every
	// other relevant block.
	wedges := g.PathGraph(entry, relevant, config.MaxPathsPerPair, config.MaxPathLen, func(p []uint64) float64 {
		return pathWeight(p, hpcByBB, config.MaxWeight)
	})

	// Line 7: maximum spanning tree (forest when G' is disconnected).
	mst := graph.MaximumSpanningForest(relevant, wedges)

	// Lines 8-9: restore the labeled paths into G_A.
	for _, e := range mst {
		for i := 1; i < len(e.Path); i++ {
			ga.AddEdge(e.Path[i-1], e.Path[i])
		}
	}
	return ga
}

// pathWeight evaluates V_p: the average HPC value of the path's interior
// blocks, or MAX for a direct edge.
func pathWeight(path []uint64, hpcByBB map[uint64]uint64, maxWeight float64) float64 {
	if len(path) <= 2 {
		return maxWeight
	}
	var sum float64
	for _, v := range path[1 : len(path)-1] {
		sum += float64(hpcByBB[v])
	}
	return sum / float64(len(path)-2)
}
