package core

import (
	"context"

	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// SparsifyResult reports what graph sparsification removed.
type SparsifyResult struct {
	Graph         *graph.Graph // edge-filtered graph, vertex IDs preserved
	EdgesRemoved  int
	IsolatedVerts int // vertices that lost all incident edges
	OriginalEdges int
	OriginalVerts int
}

// Sparsify removes from g every edge whose global trussness is below k+1.
// By Property 1 such edges belong to no maximal connected k-truss of any
// ego-network, so every score(v) is preserved. Vertex IDs are kept;
// vertices that become isolated are reported (and skipped by the search).
func Sparsify(g *graph.Graph, k int32) *SparsifyResult {
	return SparsifyWithTau(g, truss.Decompose(g), k)
}

// SparsifyWithTau is Sparsify with the global truss decomposition already
// in hand (cached across searches, or loaded from an index store), so the
// per-query cost drops to the edge filter.
func SparsifyWithTau(g *graph.Graph, tau []int32, k int32) *SparsifyResult {
	sub := g.FilterEdges(func(id int32) bool { return tau[id] >= k+1 })
	isolated := 0
	for v := 0; v < sub.N(); v++ {
		if sub.Degree(int32(v)) == 0 && g.Degree(int32(v)) > 0 {
			isolated++
		}
	}
	return &SparsifyResult{
		Graph:         sub,
		EdgesRemoved:  g.M() - sub.M(),
		IsolatedVerts: isolated,
		OriginalEdges: g.M(),
		OriginalVerts: g.N(),
	}
}

// UpperBound is Lemma 2: score(v) <= min{⌊d(v)/k⌋, ⌊2·m_v/(k(k-1))⌋},
// because every maximal connected k-truss has at least k vertices and at
// least k(k-1)/2 edges.
func UpperBound(degree int, egoEdges int32, k int32) int {
	byVerts := degree / int(k)
	byEdges := int(2*egoEdges) / int(int(k)*(int(k)-1))
	if byEdges < byVerts {
		return byEdges
	}
	return byVerts
}

// Bound is the pruned searcher (paper Algorithm 4): sparsify, compute the
// Lemma-2 upper bound for every surviving vertex, visit candidates in
// decreasing bound order, and stop as soon as the next bound cannot beat
// the current r-th best score.
type Bound struct {
	g *graph.Graph
	// tauFn, when set, supplies the global truss decomposition instead of
	// recomputing it inside every search (see NewBoundWithTau).
	tauFn func() []int32
}

// NewBound returns a Bound searcher over g.
func NewBound(g *graph.Graph) *Bound { return &Bound{g: g} }

// NewBoundWithTau returns a Bound searcher that obtains the global truss
// decomposition of g from fn — typically a cache backed by an index store
// — instead of recomputing it on every search. fn must return the exact
// decomposition of g (tau indexed by edge ID); the search results are
// identical either way.
func NewBoundWithTau(g *graph.Graph, fn func() []int32) *Bound {
	return &Bound{g: g, tauFn: fn}
}

// Graph returns the underlying graph.
func (b *Bound) Graph() *graph.Graph { return b.g }

// TopR runs Algorithm 4.
func (b *Bound) TopR(k int32, r int) (*Result, *Stats, error) {
	return b.Search(context.Background(), Params{K: k, R: r})
}

// Search runs Algorithm 4: sparsify, compute the Lemma-2 upper bound for
// every surviving candidate, visit candidates in decreasing bound order,
// and stop as soon as the next bound cannot beat the current r-th best
// score. The exact-score pass spreads over p.Workers goroutines in
// chunks (see prunedSearch). The context is checked before the
// sparsification and before every exact score computation.
//
// The search is measure-generic: for a non-truss p.Measure, trussness
// sparsification (Property 1 holds only for the truss model) is replaced
// by the measure's own upper bound over the unsparsified graph, while the
// ranked, early-terminating scan is shared.
func (b *Bound) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	p, err := p.normalized(b.g.N())
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	m := p.Measure.Normalize()
	candG := b.g
	var bound func(v int32, d int) int
	if m != MeasureTruss {
		// The trussness sparsification lemma (Property 1) does not transfer
		// to the other models, so the non-truss bound pass prunes over the
		// original graph with the measure's own upper bound and scorer.
		mv := b.g.TrianglesPerVertex()
		bound = func(v int32, d int) int { return MeasureUpperBound(m, d, mv[v], p.K) }
	} else {
		var sp *SparsifyResult
		if b.tauFn != nil {
			sp = SparsifyWithTau(b.g, b.tauFn(), p.K)
		} else {
			sp = Sparsify(b.g, p.K)
		}
		// Upper bounds on the sparsified graph (its ego-networks are
		// subgraphs of the originals, so the bound is valid and tighter).
		candG = sp.Graph
		mv := candG.TrianglesPerVertex()
		bound = func(v int32, d int) int { return UpperBound(d, mv[v], p.K) }
	}
	// Candidates are scored, and contexts recovered, with the measure's
	// scorers over candG: the sparsified graph for truss, the original
	// otherwise.
	scorer := NewMeasureScorer(candG, m)
	return prunedSearch(ctx, p, b.g.N(),
		func(v int32) int {
			// A vertex without edges (for truss, one isolated by the
			// sparsification) has no contexts: score 0.
			if d := candG.Degree(v); d > 0 {
				return bound(v, d)
			}
			return 0
		},
		func() func(v int32) int {
			vs := NewVertexScorer(candG, m)
			return func(v int32) int { return vs.Score(v, p.K) }
		},
		func(v int32) [][]int32 { return scorer.Contexts(v, p.K) })
}
