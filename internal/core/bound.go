package core

import (
	"context"
	"sort"

	"trussdiv/internal/graph"
	"trussdiv/internal/par"
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
// chunks (see scanRanked). The context is checked before the
// sparsification and before every exact score computation.
//
// The search is measure-generic: for a non-truss p.Measure, trussness
// sparsification (Property 1 holds only for the truss model) is replaced
// by the measure's own upper bound over the unsparsified graph — see
// searchMeasure — while the ranked, early-terminating scan is shared.
func (b *Bound) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	p, err := p.normalized(b.g.N())
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if m := p.Measure.Normalize(); m != MeasureTruss {
		// The trussness sparsification lemma (Property 1) does not transfer
		// to the other models, so the non-truss bound pass prunes over the
		// original graph with the measure's own upper bound and scorer.
		mv := b.g.TrianglesPerVertex()
		return b.rankedSearch(ctx, p, b.g, m,
			func(v int32, d int) int { return MeasureUpperBound(m, d, mv[v], p.K) })
	}
	var sp *SparsifyResult
	if b.tauFn != nil {
		sp = SparsifyWithTau(b.g, b.tauFn(), p.K)
	} else {
		sp = Sparsify(b.g, p.K)
	}
	// Upper bounds on the sparsified graph (its ego-networks are subgraphs
	// of the originals, so the bound is valid and tighter). A vertex
	// isolated by the sparsification has score 0 and is skipped by the
	// degree check inside rankedSearch.
	sub := sp.Graph
	mv := sub.TrianglesPerVertex()
	return b.rankedSearch(ctx, p, sub, MeasureTruss,
		func(v int32, d int) int { return UpperBound(d, mv[v], p.K) })
}

// rankedSearch is the bound framework's shared skeleton, identical for
// every measure: collect each candidate's upper bound over candG (the
// sparsified graph for truss, the original otherwise), visit candidates
// in decreasing bound order with early termination (scanRanked, one
// VertexScorer per worker), pad to the canonical answer, and recover
// contexts with the measure's shared scorer over candG. Keeping one copy
// is what pins the measure paths to the truss path's tie-break and
// padding rules — the byte-parity contract.
func (b *Bound) rankedSearch(ctx context.Context, p Params, candG *graph.Graph, m Measure, ub func(v int32, d int) int) (*Result, *Stats, error) {
	scorer := NewMeasureScorer(candG, m)
	stats := &Stats{}
	cands := make([]rankedCand, 0, candG.N())
	count, at := candidateAt(candG.N(), p.Candidates)
	err := par.For(ctx, count, 1, pollEvery, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := at(i)
			d := candG.Degree(v)
			if d == 0 {
				continue // no edges, no contexts: score is 0
			}
			if u := ub(v, d); u > 0 {
				cands = append(cands, rankedCand{v, u})
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	stats.Candidates = len(cands)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ub != cands[j].ub {
			return cands[i].ub > cands[j].ub
		}
		return cands[i].v < cands[j].v
	})
	heap, scored, err := scanRanked(ctx, cands, p.R, p.workers(),
		func() func(v int32) int {
			vs := NewVertexScorer(candG, m)
			return func(v int32) int { return vs.Score(v, p.K) }
		})
	if err != nil {
		return nil, nil, err
	}
	stats.ScoreComputations = scored
	// Vertices pruned away all have score 0 (or were dominated); if fewer
	// than r candidates existed, pad with zero-score vertices for parity
	// with the online answer size.
	padAnswer(heap, b.g.N(), p.Candidates)
	res, err := finishResult(ctx, heap.Answer(), p, func(v int32) [][]int32 {
		return scorer.Contexts(v, p.K)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, exportStats(stats, p), nil
}
