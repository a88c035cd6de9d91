package core

import (
	"context"
	"sync"
	"sync/atomic"

	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// Sparsify removes from g every edge whose global trussness is below k+1,
// leaving its (k+1)-truss. By Property 1 such edges belong to no maximal
// connected k-truss of any ego-network, so every score(v) is preserved.
// Vertex IDs are kept; vertices that become isolated are skipped by the
// search.
func Sparsify(g *graph.Graph, k int32) *graph.Graph {
	return truss.KTruss(g, truss.Decompose(g), k+1)
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
//
// Both inputs of the bound, a vertex's degree and its triangle count
// (= its ego-network edge count m_v), are facts of the graph, so a Bound
// keeps them across queries, one level per threshold: the truss level of
// k holds them over the edges with τ >= k+1 (the Property 1
// sparsification), and one level over the whole graph serves the
// component and core measures at every k. Each level is built on the
// first query that needs it, once, and holds two n-length int32 arrays
// (8n bytes) and no graph: k >= τ_max share the (edgeless) level of
// τ_max, so a Bound retains at most 8n·τ_max bytes of levels.
//
// Exact scores and contexts come from the measure's shared Scorer over
// the original graph. For truss that is exact by Property 1: the
// sparsification removes only edges that lie in no k-truss of any
// ego-network, so every score and every context vertex set over the
// sparsified graph equals the one over the original.
type Bound struct {
	g       *graph.Graph
	scorers Scorers
	// tauFn supplies the global truss decomposition of g (indexed by edge
	// ID). The first truss query calls it, once, and keeps the result in
	// tau; the other measures never need it.
	tauFn func() []int32

	trussOnce sync.Once
	tau       []int32
	truss     []boundLevel // by min(k, τ_max); allocated by trussOnce
	full      boundLevel   // the whole graph: component and core, every k
	builds    atomic.Int64 // levels filled, read by tests
}

// boundLevel is one threshold's bound inputs: deg[v] and tri[v] are v's
// degree and triangle count over the level's edges.
type boundLevel struct {
	once     sync.Once
	deg, tri []int32
}

// NewBound returns a Bound searcher over g with scorers of its own. The
// global truss decomposition is computed on the first truss query.
func NewBound(g *graph.Graph) *Bound {
	return NewBoundFrom(NewScorers(g), func() []int32 { return truss.Decompose(g) })
}

// NewBoundFrom returns a Bound searcher that scores and recovers contexts
// with the given shared scorers (one per measure, all over one graph, as
// NewOnlineFrom takes them) and obtains the global truss decomposition of
// that graph from tauFn — typically a cache backed by an index store.
// tauFn must return the exact decomposition (indexed by edge ID); it is
// called at most once per Bound, and the search results are identical
// either way.
func NewBoundFrom(s Scorers, tauFn func() []int32) *Bound {
	return &Bound{g: s[MeasureTruss].Graph(), scorers: s, tauFn: tauFn}
}

// Graph returns the underlying graph.
func (b *Bound) Graph() *graph.Graph { return b.g }

// LevelBuilds reports how many bound levels this Bound has built.
func (b *Bound) LevelBuilds() int { return int(b.builds.Load()) }

// TopR runs Algorithm 4.
func (b *Bound) TopR(k int32, r int) (*Result, *Stats, error) {
	return b.Search(context.Background(), Params{K: k, R: r})
}

// Search runs Algorithm 4: compute the Lemma-2 upper bound of every
// candidate from its level (building the level first if no query has),
// visit candidates in decreasing bound order, and stop as soon as the
// next bound cannot beat the current r-th best score. The exact-score
// pass spreads over p.Workers goroutines in chunks (see prunedSearch).
// The context is checked before the level lookup and before every exact
// score computation.
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
	lv := b.level(m, p.K)
	scorer := b.scorers[m]
	newScore, release := scorer.workerScorers(p.K)
	defer release()
	return prunedSearch(ctx, p, b.g.N(),
		func(v int32) int {
			// A vertex without edges (for truss, one isolated by the
			// sparsification) has no contexts: score 0.
			if d := int(lv.deg[v]); d > 0 {
				return MeasureUpperBound(m, d, lv.tri[v], p.K)
			}
			return 0
		},
		newScore,
		func(v int32) [][]int32 { return scorer.Contexts(v, p.K) })
}

// level returns measure m's bound level for threshold k, built.
func (b *Bound) level(m Measure, k int32) *boundLevel {
	if m != MeasureTruss {
		// Property 1 does not transfer to the other models: their bound
		// pass prunes over the whole graph at every k.
		b.full.once.Do(func() { b.fill(&b.full, b.g) })
		return &b.full
	}
	b.trussOnce.Do(func() {
		b.tau = b.tauFn()
		b.truss = make([]boundLevel, truss.MaxTrussness(b.tau)+1)
	})
	key := min(k, int32(len(b.truss)-1))
	lv := &b.truss[key]
	lv.once.Do(func() { b.fill(lv, truss.KTruss(b.g, b.tau, key+1)) })
	return lv
}

// fill sets lv's arrays to the degrees and triangle counts of h, a graph
// over b.g's vertex IDs; h itself is not kept.
func (b *Bound) fill(lv *boundLevel, h *graph.Graph) {
	deg := make([]int32, h.N())
	for v := range deg {
		deg[v] = int32(h.Degree(int32(v)))
	}
	lv.deg, lv.tri = deg, h.TrianglesPerVertex()
	b.builds.Add(1)
}
