// Package truss implements truss decomposition and k-truss extraction
// (paper §3.1, Algorithm 1).
//
// The k-truss of a graph G is the largest subgraph in which every edge is
// contained in at least k-2 triangles. The trussness τ(e) of an edge is the
// largest k such that a connected k-truss contains e. Decompose computes
// τ(e) for every edge by the standard peeling algorithm: repeatedly remove
// the edge of minimum support, updating the supports of the edges that
// shared a triangle with it. Bin sorting by support keeps the whole
// procedure at O(ρ·m) after triangle counting.
//
// Scratch.peel is the package's one such peel. Its callers differ only in
// how supports are counted and where the peel stops: by graph's one
// oriented triangle listing (Scratch.DecomposeInto, whose fresh-scratch
// form is Decompose, and Scratch.KTrussInto, which stops the peel at one
// threshold k; DecomposeFull seeds a private copy of the supports it
// returns), or from per-vertex bit rows (Scratch.DecomposeBitmapInto,
// paper §6.2's bitmap engine for ego-networks), in which mode the peel
// also lists a peeled edge's live triangles from the rows. The h-index
// descent that DecomposeParallel and Repair share is a separate
// algorithm.
package truss

import "trussdiv/internal/graph"

// Decompose returns tau[e] = trussness of edge e for every edge of g,
// indexed by edge ID. Trussness values start at 2 (an edge in no triangle
// has trussness 2). It is Scratch.DecomposeInto over a scratch owned by
// this call.
func Decompose(g *graph.Graph) []int32 {
	var s Scratch
	return s.DecomposeInto(g)
}

// forEachCommonArc calls fn(w, id(u,w), id(v,w)) for every common neighbor
// w of u and v, merging the two sorted adjacency lists.
func forEachCommonArc(g *graph.Graph, u, v int32, fn func(w, euw, evw int32)) {
	an, ai := g.Arcs(u)
	bn, bi := g.Arcs(v)
	i, j := 0, 0
	for i < len(an) && j < len(bn) {
		switch {
		case an[i] < bn[j]:
			i++
		case an[i] > bn[j]:
			j++
		default:
			fn(an[i], ai[i], bi[j])
			i++
			j++
		}
	}
}

// MaxTrussness returns the largest trussness in tau, or 0 for an edgeless
// graph. The paper reports this as τ*_G in Table 1.
func MaxTrussness(tau []int32) int32 {
	best := int32(0)
	for _, t := range tau {
		if t > best {
			best = t
		}
	}
	return best
}

// Distribution returns hist[t] = the number of edges with trussness t
// (paper Fig. 3's edge-trussness histogram).
func Distribution(tau []int32) []int64 {
	hist := make([]int64, MaxTrussness(tau)+1)
	for _, t := range tau {
		hist[t]++
	}
	return hist
}

// KTruss returns the k-truss of g as an edge-filtered subgraph (vertex IDs
// preserved; vertices outside the k-truss become isolated).
func KTruss(g *graph.Graph, tau []int32, k int32) *graph.Graph {
	return g.FilterEdges(func(id int32) bool { return tau[id] >= k })
}
