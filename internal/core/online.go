package core

import (
	"context"

	"trussdiv/internal/graph"
)

// Online is the baseline searcher (paper Algorithm 3): it computes the
// structural diversity of every candidate vertex from scratch and keeps
// the best r.
type Online struct {
	g       *graph.Graph
	scorers Scorers
}

// NewOnline returns an Online searcher over g.
func NewOnline(g *graph.Graph) *Online { return NewOnlineFrom(NewScorers(g)) }

// NewOnlineFrom returns an Online searcher that recovers answer contexts
// with the given shared scorers (one per measure, all over one graph), so
// a caller that already holds them — a DB snapshot — lends them instead
// of pooling a second set.
func NewOnlineFrom(s Scorers) *Online {
	return &Online{g: s[MeasureTruss].Graph(), scorers: s}
}

// Graph returns the underlying graph.
func (o *Online) Graph() *graph.Graph { return o.g }

// TopR returns the r vertices with the highest truss-based structural
// diversity w.r.t. k, together with their social contexts.
func (o *Online) TopR(k int32, r int) (*Result, *Stats, error) {
	return o.Search(context.Background(), Params{K: k, R: r})
}

// Search runs Algorithm 3 over the candidate set, spread over p.Workers
// goroutines; every worker borrows one VertexScorer from the measure's
// shared Scorer for the whole scan, so a warm scan grows no scratch and
// stays byte-identical to the serial order. Each candidate costs one
// ego-network decomposition, so cancellation is checked before every
// score computation. The search is
// measure-generic: p.Measure swaps the truss scorer for the
// component-based or core-based one, same scan either way. K = 0 scans
// for the parameter-free objective: each candidate costs one all-k
// decomposition, and each recovered answer one more (its level probe).
func (o *Online) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	g := o.g
	p, err := p.normalizedOrPFree(g.N())
	if err != nil {
		return nil, nil, err
	}
	scorer := o.scorers[p.Measure.Normalize()]
	newScore, release := scorer.workerScorers(p.K)
	defer release()
	heap, scored, err := scanTopR(ctx, g.N(), p.Candidates, p.R, p.workers(), 1, newScore)
	if err != nil {
		return nil, nil, err
	}
	answer := heap.Answer()
	stats := &Stats{ScoreComputations: scored, Candidates: scored}
	if p.K == 0 && !p.SkipContexts {
		stats.ScoreComputations += len(answer)
	}
	res, err := finishResult(ctx, answer, p, func(v int32) [][]int32 {
		return scorer.Contexts(v, p.K)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}
