package core

import (
	"sync"

	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
)

// Scorer is the shared, concurrency-safe scorer of one measure over one
// graph: for the truss measure it computes structural diversity scores
// and social contexts online as in paper Algorithm 2 (extract the
// ego-network, truss-decompose it, drop edges below the threshold, and
// count the connected components that remain); for the component and
// core measures it computes the Comp-Div / Core-Div models.
//
// Calls borrow a per-worker VertexScorer from an internal pool, so
// steady-state scoring stays allocation-free without giving up the
// shared-scorer contract. Scan loops borrow one VertexScorer per worker
// for the whole scan (workerScorers).
type Scorer struct {
	g    *graph.Graph
	m    Measure
	pool sync.Pool // of *VertexScorer with measure m
}

// NewScorer returns the truss-measure Scorer over g.
func NewScorer(g *graph.Graph) *Scorer { return NewMeasureScorer(g, MeasureTruss) }

// NewMeasureScorer returns the shared Scorer computing measure m over g.
func NewMeasureScorer(g *graph.Graph, m Measure) *Scorer {
	s := &Scorer{g: g, m: m.Normalize()}
	s.pool.New = func() any { return NewVertexScorer(g, s.m) }
	return s
}

// Scorers holds one shared Scorer per measure over one graph — the set a
// DB snapshot lends to every engine that scores single vertices.
type Scorers map[Measure]*Scorer

// NewScorers returns a Scorer for every measure over g.
func NewScorers(g *graph.Graph) Scorers {
	s := make(Scorers, len(AllMeasures()))
	for _, m := range AllMeasures() {
		s[m] = NewMeasureScorer(g, m)
	}
	return s
}

// Graph returns the underlying graph.
func (s *Scorer) Graph() *graph.Graph { return s.g }

// Measure returns the measure this scorer computes.
func (s *Scorer) Measure() Measure { return s.m }

// Score returns score(v) w.r.t. threshold k (paper Def. 3 for the truss
// measure). k must be >= 2, or 0 for the parameter-free score.
func (s *Scorer) Score(v int32, k int32) int {
	vs := s.pool.Get().(*VertexScorer)
	score := vs.Score(v, k)
	s.pool.Put(vs)
	return score
}

// workerScorers lends a scan's workers VertexScorers from s's pool:
// newScore is the per-worker factory the scans take (scanTopR,
// prunedSearch), scoring at threshold k, and release returns every lent
// scorer to the pool once the scan is over. A warm pool makes the scan
// skip the O(n) extraction marker a fresh VertexScorer grows.
func (s *Scorer) workerScorers(k int32) (newScore func() func(v int32) int, release func()) {
	var mu sync.Mutex
	var lent []*VertexScorer
	newScore = func() func(v int32) int {
		vs := s.pool.Get().(*VertexScorer)
		mu.Lock()
		lent = append(lent, vs)
		mu.Unlock()
		return func(v int32) int { return vs.Score(v, k) }
	}
	release = func() {
		for _, vs := range lent {
			s.pool.Put(vs)
		}
	}
	return newScore, release
}

// Contexts returns the social contexts SC(v): the vertex sets (global IDs,
// each sorted) of the measure's contexts in v's ego-network — for the
// truss measure the maximal connected k-trusses (paper Def. 2); k = 0
// recovers them at v's parameter-free discriminating level. Nil when no
// context qualifies.
func (s *Scorer) Contexts(v int32, k int32) [][]int32 {
	vs := s.pool.Get().(*VertexScorer)
	out := vs.Contexts(v, k)
	s.pool.Put(vs)
	return out
}

// ScoreAndContexts computes both from one single-k truss peel of v's
// ego-network. The contexts are nil when no k-truss qualifies, as
// Contexts reports.
func (s *Scorer) ScoreAndContexts(v int32, k int32) (int, [][]int32) {
	vs := s.pool.Get().(*VertexScorer)
	defer s.pool.Put(vs)
	net := ego.ExtractOneInto(&vs.ego, s.g, v)
	if net.G.M() == 0 {
		return 0, nil
	}
	tau := vs.tr.KTrussInto(net.G, k)
	comps := vs.tr.Components(net.G, tau, k, net.Verts)
	return len(comps), comps
}

// EgoTrussness returns the trussness of the edge (a,b) inside the
// ego-network of v, or 0 when (a,b) is not an ego edge. It exposes the
// quantity τ_{G_N(v)}(a,b) from the paper's non-symmetry discussion
// (Observation 1) for analysis and tests.
func (s *Scorer) EgoTrussness(v, a, b int32) int32 {
	vs := s.pool.Get().(*VertexScorer)
	defer s.pool.Put(vs)
	net := ego.ExtractOneInto(&vs.ego, s.g, v)
	la, lb := net.Local(a), net.Local(b)
	if la < 0 || lb < 0 {
		return 0
	}
	id := net.G.EdgeID(la, lb)
	if id < 0 {
		return 0
	}
	return vs.tr.DecomposeInto(net.G)[id]
}
