package core

import (
	"context"
	"sort"

	"trussdiv/internal/par"
)

// Parallel query execution. The per-vertex score computations that
// dominate every engine's search are independent, so the candidate
// positions go to par.For, whose workers claim blocks of them from a
// shared counter — the same pool the per-ego index pass (egoPass in
// prepare.go) runs on. Each worker scores its blocks into a private top-r
// heap; because the heap admits entries under the total order (score
// desc, vertex asc), merging the private heaps in any order reproduces
// exactly the serial answer, so parallel output is byte-identical to
// serial for every worker count and every schedule.

// candidateAt presents a candidate set in Params form — nil means every
// vertex of [0, n) — as a count of positions and the vertex at each.
func candidateAt(n int, cands []int32) (int, func(i int) int32) {
	if cands == nil {
		return n, func(i int) int32 { return int32(i) }
	}
	return len(cands), func(i int) int32 { return cands[i] }
}

// scanWith scores every candidate position in [0, count) — vertex IDs
// come from at(i) — into one top-r heap, using up to len(scorers)
// workers that claim `block` positions at a time (block 1 polls ctx
// before every score; expensive scores want it). scorers[w] is worker
// w's scoring function: nil entries are built by newScore on the
// worker's first block and kept, so scorers that carry scratch state
// stay goroutine-private and scanRanked reuses one set across its
// chunks. The returned count is the number of score computations.
func scanWith(ctx context.Context, count int, at func(i int) int32, r, block int, scorers []func(v int32) int, newScore func() func(v int32) int) (*topRHeap, int, error) {
	heaps := make([]*topRHeap, len(scorers))
	err := par.For(ctx, count, len(scorers), block, func(w, lo, hi int) {
		if heaps[w] == nil {
			heaps[w] = newTopRHeap(r)
			if scorers[w] == nil {
				scorers[w] = newScore()
			}
		}
		heap, score := heaps[w], scorers[w]
		for i := lo; i < hi; i++ {
			v := at(i)
			heap.Offer(v, score(v))
		}
	})
	if err != nil {
		return nil, 0, err
	}
	var merged *topRHeap
	for _, h := range heaps {
		switch {
		case h == nil: // the worker never claimed a block
		case merged == nil:
			merged = h
		default:
			for _, e := range h.entries {
				merged.Offer(e.V, e.Score)
			}
		}
	}
	if merged == nil { // no candidates
		merged = newTopRHeap(r)
	}
	return merged, count, nil
}

// scanTopR scores a candidate set in Params form (see candidateAt) across
// `workers` goroutines; see scanWith.
func scanTopR(ctx context.Context, n int, cands []int32, r, workers, block int, newScore func() func(v int32) int) (*topRHeap, int, error) {
	count, at := candidateAt(n, cands)
	return scanWith(ctx, count, at, r, block, make([]func(v int32) int, workers), newScore)
}

// rankedCand pairs a candidate with its score upper bound; the bound and
// tsd engines order candidates by descending bound for early termination.
type rankedCand struct {
	v  int32
	ub int
}

// rankedChunkPerWorker caps the chunks of the parallel ranked scan: once
// chunks have grown to workers*rankedChunkPerWorker candidates they stop
// doubling, bounding the score computations past the serial stopping
// point by one such chunk.
const rankedChunkPerWorker = 32

// scanRanked consumes candidates sorted by descending upper bound,
// stopping as soon as no remaining bound can reach the heap minimum
// (candidates whose bound equals the minimum are still scored — they can
// displace an equal-score entry with a larger vertex ID, and skipping
// them would break the canonical tie order). With workers > 1 the scan
// proceeds in chunks scored concurrently. The first chunk holds exactly
// r candidates — the serial scan scores at least those before its first
// termination check, since the heap is not full until then — and each
// later chunk doubles, up to workers*rankedChunkPerWorker. The chunk tail
// below the current minimum is trimmed, so the extra score computations
// relative to the serial scan are bounded by the chunk in flight when the
// bound fires: fewer than the serial count plus r, and fewer than
// workers*rankedChunkPerWorker once chunks stop growing. A query the
// serial scan settles after r scores (paper Example 3) costs exactly r at
// every worker count. The answer itself is identical because those
// extras cannot enter the heap.
func scanRanked(ctx context.Context, cands []rankedCand, r, workers int, newScore func() func(v int32) int) (*topRHeap, int, error) {
	if workers <= 1 {
		heap := newTopRHeap(r)
		score := newScore()
		scored := 0
		for _, c := range cands {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			if heap.Full() && c.ub < heap.MinScore() {
				break // no remaining candidate can change the answer
			}
			heap.Offer(c.v, score(c.v))
			scored++
		}
		return heap, scored, nil
	}
	heap := newTopRHeap(r)
	scored := 0
	chunk, maxChunk := max(r, 1), max(r, workers*rankedChunkPerWorker)
	// One scorer per worker, reused across every chunk (scratch state like
	// the TSD visit marks is built once, not once per round).
	scorers := make([]func(v int32) int, workers)
	for lo := 0; lo < len(cands); lo, chunk = lo+chunk, min(2*chunk, maxChunk) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		hi := min(lo+chunk, len(cands))
		part := cands[lo:hi]
		if heap.Full() {
			m := heap.MinScore()
			if part[0].ub < m {
				break
			}
			// Bounds are descending: drop the tail that can no longer win.
			part = part[:sort.Search(len(part), func(i int) bool { return part[i].ub < m })]
		}
		sub, n, err := scanWith(ctx, len(part), func(i int) int32 { return part[i].v }, r, 1, scorers, newScore)
		if err != nil {
			return nil, 0, err
		}
		scored += n
		for _, e := range sub.entries {
			heap.Offer(e.V, e.Score)
		}
	}
	return heap, scored, nil
}

// prunedSearch is the pruned scan the bound and tsd engines share:
// collect every candidate's upper bound (ub is 0 for a candidate that
// cannot score), visit the candidates in decreasing bound order with
// early termination (scanRanked, one newScore scorer per worker), pad to
// the canonical answer over the n-vertex graph, and recover the answer's
// contexts. Keeping one copy is what pins both engines, under every
// measure, to the same tie-break and padding rules — the byte-parity
// contract.
func prunedSearch(ctx context.Context, p Params, n int, ub func(v int32) int,
	newScore func() func(v int32) int, contexts func(v int32) [][]int32) (*Result, *Stats, error) {
	stats := &Stats{}
	count, at := candidateAt(n, p.Candidates)
	cands := make([]rankedCand, 0, count)
	err := par.For(ctx, count, 1, pollEvery, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := at(i)
			if u := ub(v); u > 0 {
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
	heap, scored, err := scanRanked(ctx, cands, p.R, p.workers(), newScore)
	if err != nil {
		return nil, nil, err
	}
	stats.ScoreComputations = scored
	// Vertices pruned away all have score 0 (or were dominated); if fewer
	// than r candidates existed, pad with zero-score vertices for parity
	// with the online answer size.
	padAnswer(heap, n, p.Candidates)
	res, err := finishResult(ctx, heap.Answer(), p, contexts)
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}
