// Package kcore implements k-core decomposition, the substrate of the
// core-based structural diversity baseline (Core-Div, paper §7 and [20]).
// A k-core is the largest subgraph in which every vertex has degree at
// least k; the core number of a vertex is the largest k such that a k-core
// contains it. Decomposition is the classic O(n+m) bin-sort peeling of
// Batagelj–Zaveršnik.
package kcore

import (
	"trussdiv/internal/graph"
)

// Decompose returns core[v] = the core number of every vertex of g: the
// Scratch peel over a scratch owned by this call.
func Decompose(g *graph.Graph) []int32 {
	return new(Scratch).DecomposeInto(g)
}

// Components returns the vertex sets of the maximal connected k-cores of
// g: connected components of the subgraph induced by vertices with core
// number >= k, each sorted, ordered by first vertex. For k >= 1 vertices
// with no qualifying neighbor still form singleton components only if
// their core number qualifies (which for k >= 1 implies an edge, so
// singletons appear only for k = 0); nil when no vertex qualifies. All
// groups share one flat backing array; loops should reuse a Scratch via
// Scratch.Components instead.
func Components(g *graph.Graph, core []int32, k int32) [][]int32 {
	return new(Scratch).Components(g, core, k, nil)
}

// CountComponents returns the number of maximal connected k-cores without
// materializing them. Loops should reuse a Scratch via
// Scratch.CountComponents instead.
func CountComponents(g *graph.Graph, core []int32, k int32) int {
	return new(Scratch).CountComponents(g, core, k)
}
