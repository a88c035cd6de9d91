package truss

import (
	"trussdiv/internal/graph"
)

// Components returns the vertex sets of the maximal connected k-trusses of
// g: the connected components of the subgraph formed by edges with
// trussness >= k (paper Def. 2 applies this to ego-networks). Each
// component is a sorted vertex list; components are sorted by their first
// vertex. Vertices incident to no qualifying edge appear in no component;
// nil when no edge qualifies. All groups share one flat backing array;
// loops should reuse a Scratch via Scratch.Components instead.
func Components(g *graph.Graph, tau []int32, k int32) [][]int32 {
	return new(Scratch).Components(g, tau, k, nil)
}

// CountComponents returns only the number of maximal connected k-trusses,
// without materializing the vertex sets. This is the quantity score(v)
// measures on ego-networks (paper Def. 3). Loops should reuse a Scratch
// via Scratch.CountComponents instead.
func CountComponents(g *graph.Graph, tau []int32, k int32) int {
	return new(Scratch).CountComponents(g, tau, k)
}
