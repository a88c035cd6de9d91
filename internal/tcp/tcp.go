// Package tcp implements the TCP-index (Triangle Connectivity Preserving
// index) of Huang et al., SIGMOD 2014 — the state-of-the-art k-truss
// community index the paper compares its TSD-index against in §8.2 and
// Figure 18.
//
// A k-truss community is a maximal connected k-truss whose edges are
// pairwise reachable through adjacent triangles (triangle connectivity).
// The TCP-index keeps, per vertex v, a maximum spanning forest of v's
// neighborhood where an edge (u,w) with u,w ∈ N(v) is weighted by
// w(u,w) = min{τ(u,v), τ(v,w), τ(u,w)} — the highest k for which the
// triangle △uvw survives inside a k-truss. The contrast with TSD
// (paper Fig. 18): TCP weights speak about *global* truss communities,
// TSD weights about trussness *local to the ego-network*.
package tcp

import (
	"cmp"
	"slices"
	"sort"

	"trussdiv/internal/dsu"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// ForestEdge is one edge of a vertex's TCP forest. U and W are global
// vertex IDs (both neighbors of the index vertex); Wt is the triangle
// weight min{τ(uv), τ(vw), τ(uw)}.
type ForestEdge struct {
	U, W int32
	Wt   int32
}

// Index is the TCP-index of a graph: per-vertex maximum spanning forests
// over triangle weights, plus the global edge trussness they are weighted
// by.
type Index struct {
	g      *graph.Graph
	tau    []int32        // global edge trussness
	forest [][]ForestEdge // per vertex, weight-descending
}

// Build constructs the TCP-index: one global truss decomposition, then a
// Kruskal maximum spanning forest per neighborhood over triangle weights.
func Build(g *graph.Graph) *Index {
	tau := truss.Decompose(g)
	idx := &Index{g: g, tau: tau, forest: make([][]ForestEdge, g.N())}

	// Collect the weighted neighborhood edges of every vertex in one
	// global triangle pass: triangle (u,v,w) contributes edge (v,w) to
	// u's forest graph, (u,w) to v's, and (u,v) to w's, all with weight
	// min of the three trussnesses. Each vertex gets one edge per
	// triangle through it, so its slot count is its triangle count.
	counts := g.TrianglesPerVertex()
	off := make([]int64, g.N()+1)
	for v := 0; v < g.N(); v++ {
		off[v+1] = off[v] + int64(counts[v])
	}
	edges := make([]ForestEdge, off[g.N()])
	cursor := make([]int64, g.N())
	copy(cursor, off[:g.N()])
	g.ForEachTriangle(func(t graph.Triangle) bool {
		wt := min(idx.tau[t.EUV], idx.tau[t.EUW], idx.tau[t.EVW])
		put := func(center, a, b int32) {
			edges[cursor[center]] = ForestEdge{U: a, W: b, Wt: wt}
			cursor[center]++
		}
		put(t.U, t.V, t.W)
		put(t.V, t.U, t.W)
		put(t.W, t.U, t.V)
		return true
	})

	for v := int32(0); int(v) < g.N(); v++ {
		idx.forest[v] = maxSpanningForest(g, v, edges[off[v]:off[v+1]])
	}
	return idx
}

// maxSpanningForest runs Kruskal over v's weighted neighborhood edges in
// the total order (Wt desc, U asc, W asc), so the forest kept among equal
// weights does not depend on the order the triangles were listed in.
// Neighbor IDs are mapped to local slots via the sorted neighbor list.
func maxSpanningForest(g *graph.Graph, v int32, edges []ForestEdge) []ForestEdge {
	if len(edges) == 0 {
		return nil
	}
	slices.SortFunc(edges, func(a, b ForestEdge) int {
		if c := cmp.Compare(b.Wt, a.Wt); c != 0 {
			return c
		}
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.W, b.W)
	})
	nbr := g.Neighbors(v)
	local := func(global int32) int32 {
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= global })
		return int32(i)
	}
	d := dsu.New(len(nbr))
	out := make([]ForestEdge, 0, len(nbr)-1)
	for _, e := range edges {
		if d.Union(local(e.U), local(e.W)) {
			out = append(out, e)
			if len(out) == len(nbr)-1 {
				break
			}
		}
	}
	return out
}

// Graph returns the indexed graph.
func (idx *Index) Graph() *graph.Graph { return idx.g }

// Trussness returns the global trussness of edge (u,v), 0 when absent.
func (idx *Index) Trussness(u, v int32) int32 {
	id := idx.g.EdgeID(u, v)
	if id < 0 {
		return 0
	}
	return idx.tau[id]
}

// Forest returns v's TCP forest (weight-descending). Aliases storage.
func (idx *Index) Forest(v int32) []ForestEdge { return idx.forest[v] }
