package core

import (
	"context"
	"slices"
	"sort"
	"sync"

	"trussdiv/internal/dsu"
	"trussdiv/internal/graph"
)

// TSDEdge is one edge of a vertex's TSD forest: endpoints are local
// indices into the neighbor list N(v), and T is the trussness of the edge
// inside the ego-network G_N(v).
type TSDEdge struct {
	U, W int32
	T    int32
}

// TSDIndex is the paper's truss-based structural diversity index (§5): for
// every vertex v it stores a maximum spanning forest of v's ego-network
// weighted by edge trussness. Observation 2 shows a tree suffices to
// represent membership of a maximal connected k-truss; Observation 3 shows
// the forest must be maximum-weight to avoid losing diversity information.
//
// The index is independent of k and r: one construction answers all
// queries. Index size is O(Σ_v |N(v)|) = O(m).
type TSDIndex struct {
	g     *graph.Graph
	edges paged[[]TSDEdge] // per vertex, sorted by T descending
	mv    paged[int32]     // ego-network edge counts, recorded during the build
	// vtCum.at(v)[w-2] = number of neighbors of v whose ego vertex-trussness
	// is >= w. By the maximum-spanning-forest property this equals the
	// number of vertices touched by the weight->=w forest prefix, giving
	// the O(log) vertex-count bound ⌊t_k/k⌋ used alongside s̃core.
	vtCum paged[[]int32]
}

// BuildTSDIndex runs Algorithm 5 serially: per-vertex ego-network
// extraction, truss decomposition, then Kruskal's maximum spanning forest
// over the trussness-weighted ego-network (forestScratch.span) — the TSD
// branch of BuildAll's per-vertex pass.
func BuildTSDIndex(g *graph.Graph) *TSDIndex { return BuildAll(g, BuildTargets{TSD: true}, 1).TSD }

// tsdForest copies a spanned forest (edge IDs from forestScratch.span
// over tau) into the stored form: local endpoints and weights, in the
// forest's weight-descending order, which Score exploits as a prefix
// filter.
func tsdForest(local *graph.Graph, tau, forest []int32) []TSDEdge {
	out := make([]TSDEdge, len(forest))
	for i, id := range forest {
		e := local.Edge(id)
		out[i] = TSDEdge{U: e.U, W: e.V, T: tau[id]}
	}
	return out
}

// cumulativeVertexTrussness returns cum[w-2] = |{u : vt(u) >= w}| for
// w = 2..max vt over the ego-network's vertex trussnesses (the largest
// trussness of any incident edge, as forestScratch.span reports it).
func cumulativeVertexTrussness(vt []int32) []int32 {
	maxT := slices.Max(vt)
	if maxT < 2 {
		return nil
	}
	cum := make([]int32, maxT-1)
	for _, t := range vt {
		if t >= 2 {
			cum[t-2]++
		}
	}
	for i := len(cum) - 2; i >= 0; i-- {
		cum[i] += cum[i+1]
	}
	return cum
}

// Graph returns the graph the index was built over.
func (idx *TSDIndex) Graph() *graph.Graph { return idx.g }

// Forest returns v's TSD forest edges (weight-descending). The slice
// aliases index storage.
func (idx *TSDIndex) Forest(v int32) []TSDEdge { return idx.edges.at(v) }

// prefixLen returns the number of forest edges of v with weight >= k,
// by binary search over the descending weight order.
func (idx *TSDIndex) prefixLen(v int32, k int32) int {
	edges := idx.edges.at(v)
	return sort.Search(len(edges), func(i int) bool { return edges[i].T < k })
}

// ForestBound is the paper's s̃core(v) = ⌊|{e ∈ TSD_v : w(e) >= k}| /
// (k-1)⌋ (§5.2): a maximal connected k-truss occupies at least k-1 forest
// edges of weight >= k.
func (idx *TSDIndex) ForestBound(v int32, k int32) int {
	return idx.prefixLen(v, k) / int(k-1)
}

// QualifyingNeighbors returns t_k: how many neighbors of v have ego
// vertex-trussness >= k — exactly the vertices the weight->=k forest
// prefix touches.
func (idx *TSDIndex) QualifyingNeighbors(v int32, k int32) int {
	cum := idx.vtCum.at(v)
	if k < 2 {
		k = 2
	}
	if int(k-2) >= len(cum) {
		return 0
	}
	return int(cum[k-2])
}

// ScoreUpperBound combines every O(log)-computable bound the index offers:
// the paper's s̃core forest-edge bound, the vertex-count bound ⌊t_k/k⌋
// (each context needs k qualifying vertices), and Lemma 2's ego-edge bound
// from the recorded m_v. The combination dominates each term, which keeps
// the TSD search space at or below the bound framework's — the
// relationship Table 2 reports.
func (idx *TSDIndex) ScoreUpperBound(v int32, k int32) int {
	ub := idx.ForestBound(v, k)
	if t := idx.QualifyingNeighbors(v, k) / int(k); t < ub {
		ub = t
	}
	if l2 := UpperBound(idx.g.Degree(v), idx.mv.at(v), k); l2 < ub {
		ub = l2
	}
	return ub
}

// Score runs Algorithm 6: count the connected components formed by
// forest edges with weight >= k. The stored forest is acyclic, so the
// count is the vertices the weight->=k prefix touches, which are exactly
// t_k (QualifyingNeighbors), minus the prefix's edges: two O(log) reads,
// safe from any number of goroutines.
func (idx *TSDIndex) Score(v int32, k int32) int {
	return idx.QualifyingNeighbors(v, k) - idx.prefixLen(v, k)
}

// Contexts reconstructs the social contexts SC(v) from the forest: the
// components of the weight->=k prefix, laid out by a dsu.Grouper over the
// local vertex range and mapped back to global vertex IDs. Local order is
// global order, because neighbor lists are sorted, so no map and no sort
// is needed. See BenchmarkTSDContexts for the win over the original
// map[root][]member grouping.
func (idx *TSDIndex) Contexts(v int32, k int32) [][]int32 {
	p := idx.prefixLen(v, k)
	if p == 0 {
		return nil
	}
	verts := idx.g.Neighbors(v)
	s := groupScratchPool.Get().(*groupScratch)
	defer groupScratchPool.Put(s)
	s.d.Init(len(verts))
	roots := s.gr.Roots(len(verts))
	for _, e := range idx.edges.at(v)[:p] {
		s.d.Union(e.U, e.W)
		roots[e.U], roots[e.W] = 0, 0
	}
	for lv, r := range roots {
		if r >= 0 {
			roots[lv] = s.d.Find(int32(lv))
		}
	}
	return s.gr.Groups(roots, verts)
}

// groupScratch is the transient state of one index's context recovery:
// a union-find and a grouper. Pooled, so the read-only indexes stay safe
// for concurrent use while a warm Contexts allocates only the groups it
// returns.
type groupScratch struct {
	d  dsu.DSU
	gr dsu.Grouper
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

// SizeBytes returns the in-memory footprint of the stored forests (12
// bytes per forest edge plus slice headers), the quantity reported as
// "index size" in Table 3.
func (idx *TSDIndex) SizeBytes() int64 {
	var b int64
	for _, page := range idx.edges.pages {
		for _, edges := range page {
			b += int64(len(edges))*12 + 24
		}
	}
	return b
}

// TSD is the index-based searcher (paper §5.2): candidates are ordered by
// the s̃core bound and pruned with early termination, and exact scores come
// from the forest prefix count in O(log |N(v)|).
type TSD struct {
	idx *TSDIndex
}

// NewTSD returns a TSD searcher over a built index.
func NewTSD(idx *TSDIndex) *TSD { return &TSD{idx: idx} }

// Index returns the underlying TSD index.
func (t *TSD) Index() *TSDIndex { return t.idx }

// TopR answers the top-r query from the index alone.
func (t *TSD) TopR(k int32, r int) (*Result, *Stats, error) {
	return t.Search(context.Background(), Params{K: k, R: r})
}

// Search answers the top-r query from the index alone (paper §5.2):
// candidates are ordered by the s̃core bound and pruned with early
// termination; exact scores are Score's two O(log) reads of the read-only
// index, so p.Workers can spread the scan and Search itself is safe for
// concurrent use. The bound pass polls the context every few hundred
// vertices, the exact-score pass on every candidate.
func (t *TSD) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	g := t.idx.g
	p, err := p.normalized(g.N())
	if err != nil {
		return nil, nil, err
	}
	if m := p.Measure.Normalize(); m != MeasureTruss {
		// The forest encodes trussness weights; it cannot answer the
		// component or core measures.
		return nil, nil, &UnsupportedMeasureError{Engine: "tsd", Measure: m}
	}
	return prunedSearch(ctx, p, g.N(),
		func(v int32) int { return t.idx.ScoreUpperBound(v, p.K) },
		func() func(v int32) int {
			return func(v int32) int { return t.idx.Score(v, p.K) }
		},
		func(v int32) [][]int32 { return t.idx.Contexts(v, p.K) })
}
