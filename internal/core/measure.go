package core

import (
	"context"
	"errors"
	"fmt"
)

// Measure names one structural diversity definition — the axis the
// paper's §7 varies when it compares the truss-based model against the
// component-based (Comp-Div) and core-based (Core-Div) alternatives.
// The generic engines (Online, Bound) and the per-measure Ranked tables
// serve every measure; the truss-index engines (TSD, GCT) serve only
// MeasureTruss and reject other measures with an *UnsupportedMeasureError.
type Measure string

const (
	// MeasureTruss counts maximal connected k-trusses of the ego-network
	// (the paper's model, Def. 3). It is the default: an empty Measure
	// normalizes to it.
	MeasureTruss Measure = "truss"
	// MeasureComponent counts connected components of the ego-network
	// with at least k vertices (Huang et al. / Chang et al. [7, 21]).
	MeasureComponent Measure = "component"
	// MeasureCore counts maximal connected k-cores of the ego-network
	// (Huang et al. [20]).
	MeasureCore Measure = "core"
)

// AllMeasures lists every supported measure, default first.
func AllMeasures() []Measure {
	return []Measure{MeasureTruss, MeasureComponent, MeasureCore}
}

// Normalize maps the empty measure to the truss default.
func (m Measure) Normalize() Measure {
	if m == "" {
		return MeasureTruss
	}
	return m
}

// Valid reports whether m (after normalization) names a known measure.
func (m Measure) Valid() bool {
	switch m.Normalize() {
	case MeasureTruss, MeasureComponent, MeasureCore:
		return true
	}
	return false
}

// ParseMeasure resolves a user-supplied measure name ("" = truss).
func ParseMeasure(s string) (Measure, error) {
	m := Measure(s)
	if !m.Valid() {
		return "", fmt.Errorf("core: unknown measure %q (known: truss|component|core)", s)
	}
	return m.Normalize(), nil
}

// ErrUnsupportedMeasure is the sentinel matched by errors.Is when a
// query names a measure the chosen engine cannot compute (the TSD and GCT
// structures encode truss decompositions only, and a Ranked table holds
// one measure's scores); the concrete error is *UnsupportedMeasureError.
var ErrUnsupportedMeasure = errors.New("core: engine does not support the requested measure")

// UnsupportedMeasureError reports a (engine, measure) pair outside the
// routing matrix: the engine exists and the measure exists, but that
// engine cannot compute that measure.
type UnsupportedMeasureError struct {
	Engine  string
	Measure Measure
}

func (e *UnsupportedMeasureError) Error() string {
	return fmt.Sprintf("core: engine %q does not support measure %q", e.Engine, e.Measure)
}

// Is makes errors.Is(err, ErrUnsupportedMeasure) match.
func (e *UnsupportedMeasureError) Is(target error) bool { return target == ErrUnsupportedMeasure }

// MeasureUpperBound bounds score(v) under measure m from two quantities
// every measure shares: the degree d(v) and the ego-network edge count
// m_v (= the number of triangles through v). Each measure's contexts
// have a minimum size, which caps how many can fit in the ego-network:
//
//   - truss: Lemma 2 — a k-truss has >= k vertices and >= k(k-1)/2 edges.
//   - component: a connected component with >= k vertices has >= k-1 edges.
//   - core: a connected k-core has >= k+1 vertices (every member needs k
//     neighbors inside it) and therefore >= k(k+1)/2 edges — Lemma 2
//     evaluated at k+1.
func MeasureUpperBound(m Measure, degree int, egoEdges int32, k int32) int {
	switch m.Normalize() {
	case MeasureComponent:
		byVerts := degree / int(k)
		byEdges := int(egoEdges) / int(k-1)
		return min(byVerts, byEdges)
	case MeasureCore:
		return UpperBound(degree, egoEdges, k+1)
	default:
		return UpperBound(degree, egoEdges, k)
	}
}

// Ranked serves top-r queries of one measure from its precomputed per-k
// rankings: the table's ranking at k is the complete vertex ranking at
// threshold k, so a top-r query reads its first r entries directly. For
// the truss measure this is the Hybrid competitor of paper Exp-4 — by
// Lemma 3 its table is exactly the truss row of the per-measure table
// BuildAll produces — and the same strategy serves the component and core
// measures. Reading the ranking is an O(r) prefix scan; the social
// contexts of the answer vertices are recovered online with the measure's
// shared Scorer (spread over p.Workers), which is what makes the strategy
// lose to GCT as r grows. The same table answers the parameter-free query
// (K = 0) from its row 0.
type Ranked struct {
	scorer *Scorer
	table  RankTable
}

// NewRanked returns a rankings-backed searcher for scorer's measure over
// scorer's graph. table must come from BuildAll for that measure (or an
// index store that persisted it, or PatchAll): each ranking sorted by
// score descending, vertex ascending, zero scores omitted. The table is
// adopted, not copied; the scorer recovers contexts.
func NewRanked(scorer *Scorer, table RankTable) *Ranked {
	return &Ranked{scorer: scorer, table: table}
}

// Measure returns the measure the rankings were scored under.
func (r *Ranked) Measure() Measure { return r.scorer.m }

// Rankings returns the table (row 0 parameter-free, row 1 empty). It
// aliases internal storage.
func (r *Ranked) Rankings() RankTable { return r.table }

// Ranking returns the full precomputed ranking for k (sorted by score
// descending), empty outside the table; k = 0 returns the parameter-free
// ranking. It aliases internal storage.
func (r *Ranked) Ranking(k int32) RankRow {
	if k < 0 || int(k) >= len(r.table) {
		return RankRow{}
	}
	return r.table[k]
}

// TopR answers from the precomputed ranking, then recovers the contexts
// of each answer vertex online.
func (r *Ranked) TopR(k int32, rr int) (*Result, *Stats, error) {
	return r.Search(context.Background(), Params{K: k, R: rr})
}

// Search answers a top-r query of r.Measure() from the rankings — the
// parameter-free query at K = 0 — and a Params.Measure naming any other
// measure is rejected with an *UnsupportedMeasureError. Reading the
// ranking is nearly free; the expensive part is the per-answer online
// context recovery, which finishResult polls on every vertex — so a
// Search with SkipContexts set is the cheapest query in the library.
func (r *Ranked) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	g := r.scorer.g
	p, err := p.normalizedOrPFree(g.N())
	if err != nil {
		return nil, nil, err
	}
	if m := p.Measure.Normalize(); m != r.scorer.m {
		return nil, nil, &UnsupportedMeasureError{Engine: "ranked[" + string(r.scorer.m) + "]", Measure: m}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	answer, candidates := rankedAnswer(r.Ranking(p.K), g.N(), p)
	stats := &Stats{Candidates: candidates}
	res, err := finishResult(ctx, answer, p, func(v int32) [][]int32 {
		return r.scorer.Contexts(v, p.K)
	})
	if err != nil {
		return nil, nil, err
	}
	if !p.SkipContexts {
		// Every answer vertex cost one online recovery (the strategy's
		// "search space"); counted here so parallel recovery stays
		// race-free.
		stats.ScoreComputations = len(answer)
	}
	return res, stats, nil
}

// rankedAnswer selects the canonical top-r answer from one precomputed
// per-k ranking (sorted by score descending, vertex ascending): an O(r)
// prefix read without a candidate subset, a filtered pass with one, and
// zero-score padding when fewer than r candidates have any social
// context — matching the scanning searchers' answer byte for byte. The
// second return is the number of ranked candidates considered (the
// Stats.Candidates of rankings-backed engines).
func rankedAnswer(ranked RankRow, n int, p Params) ([]VertexScore, int) {
	var answer []VertexScore
	var candidates int
	if p.Candidates == nil {
		candidates = ranked.Len()
		answer = ranked.AppendTo(make([]VertexScore, 0, p.R), p.R)
	} else {
		inCand := make(map[int32]bool, len(p.Candidates))
		for _, v := range p.Candidates {
			inCand[v] = true
		}
		answer = make([]VertexScore, 0, p.R)
		for _, c := range ranked.Chunks() {
			for _, e := range c {
				if !inCand[e.V] {
					continue
				}
				candidates++
				if len(answer) < p.R {
					answer = append(answer, VertexScore{V: e.V, Score: int(e.Score)})
				}
			}
		}
	}
	if len(answer) < p.R {
		heap := newTopRHeap(p.R)
		for _, e := range answer {
			heap.Offer(e.V, e.Score)
		}
		padAnswer(heap, n, p.Candidates)
		answer = heap.Answer()
	}
	return answer, candidates
}
