// Package pfree implements parameter-free structural diversity search:
// the sixth engine of the stack, after "Parameter-free Structural
// Diversity Search" (arXiv:1908.11612, same authors as the base paper).
//
// Every other engine answers top-r for one fixed threshold k, forcing
// users to guess a truss level before asking for diverse vertices. The
// parameter-free objective removes the guess by aggregating the whole
// per-k score vector s_m(v, ·) of a vertex into one number, an h-index
// style fixpoint over the threshold axis:
//
//	pfree(v) = max{ h >= 1 : s_m(v, max(h, 2)) >= h },  0 if no h qualifies
//
// where s_m(v, k) is the structural diversity score of v at threshold k
// under measure m (k-truss components of the ego network, connected
// components of size >= k, or k-core components). The max(h, 2) clamp
// exists because every measure's threshold axis starts at k = 2: h = 1
// ("at least one context at the weakest level") and h = 2 are both
// witnessed at level 2. A vertex is diverse parameter-freely when it has
// many contexts at a proportionally strong cohesion level — a few huge
// communities or many trivial ones both score low, exactly the
// trade-off fixed-k search forces users to navigate by hand.
//
// The discriminating level k*(v) = max(pfree(v), 2) is the threshold
// that witnesses the score; the pfree contexts of v are the measure's
// contexts at k*(v). Like every engine in this repository, answers are
// produced under the canonical total order (score descending, vertex id
// ascending), so serial, parallel, and Batch executions are
// byte-identical.
//
// Two execution paths produce identical bytes: a prepared path that
// reads a precomputed pfree ranking (derived in O(table) from the per-k
// ranking table of the measure, or loaded from the store's pfree slab),
// and an online fallback that scores one ego network at a time through
// core.VertexScorer.ScoresAllK for cold or small graphs.
package pfree

import (
	"context"

	"trussdiv/internal/core"
)

// Score aggregates one vertex's per-k score vector (as returned by
// core.VertexScorer.ScoresAllK or core.PatchAll: indexed by k, entries 0
// and 1 unused, nil when the vertex has no contexts at any level) into
// its parameter-free diversity score: the maximum h any level witnesses,
// 0 when none qualifies.
func Score[S ~int | ~int32](allK []S) int {
	best := 0
	for k := 2; k < len(allK); k++ {
		best = max(best, witness(k, int(allK[k])))
	}
	return best
}

// witness is the h that s contexts at level k witness: level 2 witnesses
// h = min(s, 2), a level k >= 3 witnesses h = k iff s >= k.
func witness(k, s int) int {
	switch {
	case s <= 0:
		return 0
	case k == 2:
		return min(s, 2)
	case s >= k:
		return k
	}
	return 0
}

// Level returns the discriminating level k*(v) = max(Score, 2) — the
// threshold that witnesses the parameter-free score and at which the
// pfree contexts of the vertex live. 0 when the score is 0 (no
// contexts at any level).
func Level(allK []int) int32 {
	h := Score(allK)
	if h == 0 {
		return 0
	}
	if h < 2 {
		return 2
	}
	return int32(h)
}

// ScoreAt computes the parameter-free score of one vertex online under
// s's measure: one ego-network extraction and one all-k decomposition on
// a pooled scorer.
func ScoreAt(s *core.Scorer, v int32) (score int) {
	s.Do(func(vs *core.VertexScorer) { score = Score(vs.ScoresAllK(v)) })
	return score
}

// ContextsAt recovers the pfree contexts of one vertex online: the
// measure's contexts at the discriminating level. Nil when the score
// is 0.
func ContextsAt(s *core.Scorer, v int32) (contexts [][]int32) {
	s.Do(func(vs *core.VertexScorer) {
		if lvl := Level(vs.ScoresAllK(v)); lvl > 0 {
			contexts = vs.Contexts(v, lvl)
		}
	})
	return contexts
}

// RankingFromPerK derives the canonical pfree ranking (score descending,
// id ascending, zero scores omitted, never nil) from the per-k ranking
// table a fixed-k engine already holds (core.BuildAll's table of the
// measure, truss included): perK[k] lists the vertices with s(v, k) > 0
// canonically. Every listed (v, k, s) entry witnesses exactly the
// per-level h of Score, so one O(total entries) sweep replaces a full
// per-vertex ego pass — the prepared fast path.
func RankingFromPerK(perK [][]core.VertexScore) []core.VertexScore {
	best := make(map[int32]int)
	for k := 2; k < len(perK); k++ {
		for _, e := range perK[k] {
			if h := witness(k, e.Score); h > best[e.V] {
				best[e.V] = h
			}
		}
	}
	list := make([]core.VertexScore, 0, len(best))
	for v, s := range best {
		list = append(list, core.VertexScore{V: v, Score: s})
	}
	core.SortCanonical(list)
	return list
}

// PatchRanking splices the affected vertices of an edit batch into an
// existing pfree ranking: their fresh all-k vectors (aligned with
// affected, from core.PatchAll's pass) are aggregated and merged
// canonically with the unaffected survivors — no re-scoring. The result
// equals RankingFromPerK over the edited graph's tables and never
// aliases old.
func PatchRanking(old []core.VertexScore, affected []int32, allK [][]int32) []core.VertexScore {
	aff := make(map[int32]bool, len(affected))
	fresh := make([]core.VertexScore, 0, len(affected))
	for i, v := range affected {
		aff[v] = true
		if s := Score(allK[i]); s > 0 {
			fresh = append(fresh, core.VertexScore{V: v, Score: s})
		}
	}
	core.SortCanonical(fresh)
	return core.MergeRanked(old, fresh, aff)
}

// Searcher answers parameter-free top-r queries for one (graph,
// measure) pair. With a prepared ranking it is an O(r) canonical prefix
// read; without one it falls back to the online scan. Both paths answer
// byte-identically. Safe for concurrent use.
type Searcher struct {
	scorer *core.Scorer
	ranked []core.VertexScore
}

// NewSearcher builds a Searcher for scorer's measure over scorer's
// graph; the shared scorer recovers answer contexts. ranked, when
// non-nil, is a prepared canonical pfree ranking (RankingFromPerK /
// PatchRanking / a store slab) enabling the O(r) fast path; nil
// selects the online fallback.
func NewSearcher(scorer *core.Scorer, ranked []core.VertexScore) *Searcher {
	return &Searcher{scorer: scorer, ranked: ranked}
}

// Contexts recovers the pfree contexts of one answer vertex (the
// measure's contexts at the discriminating level); nil for zero-score
// vertices. Safe for concurrent calls.
func (s *Searcher) Contexts(v int32) [][]int32 { return ContextsAt(s.scorer, v) }

// Search answers the parameter-free top-r query. p.K is ignored — the
// objective has no threshold; validation of the remaining parameters is
// identical to the fixed-k engines'.
func (s *Searcher) Search(ctx context.Context, p core.Params) (*core.Result, *core.Stats, error) {
	g, sm := s.scorer.Graph(), s.scorer.Measure()
	p, err := p.NormalizedNoK(g.N())
	if err != nil {
		return nil, nil, err
	}
	if m := p.Measure.Normalize(); m != sm {
		return nil, nil, &core.UnsupportedMeasureError{Engine: "pfree[" + string(sm) + "]", Measure: m}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	stats := &core.Stats{}
	var answer []core.VertexScore
	if s.ranked != nil {
		answer, stats.Candidates = core.RankedAnswer(s.ranked, g.N(), p)
		if !p.SkipContexts {
			// Context recovery is the only decomposition work on this path.
			stats.ScoreComputations = len(answer)
		}
	} else {
		var scored int
		answer, scored, err = core.ScanCanonical(ctx, g.N(), p, func() func(v int32) int {
			vs := core.NewVertexScorer(g, sm) // one scratch per worker
			return func(v int32) int { return Score(vs.ScoresAllK(v)) }
		})
		if err != nil {
			return nil, nil, err
		}
		stats.Candidates = scored
		stats.ScoreComputations = scored
		if !p.SkipContexts {
			stats.ScoreComputations += len(answer)
		}
	}

	res, err := core.FinishResult(ctx, answer, p, s.Contexts)
	if err != nil {
		return nil, nil, err
	}
	if p.SkipStats {
		return res, nil, nil
	}
	return res, stats, nil
}
