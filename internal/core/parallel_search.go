package core

import (
	"context"
	"sort"
	"sync"
)

// Parallel query execution. The per-vertex score computations that
// dominate every engine's search are independent, so the candidate range
// is cut into contiguous shards handed to a worker pool — the same
// vertex-sharding strategy the parallel index builders in parallel.go
// use. Each worker scores its shard into a private top-r heap with its
// own context polling; because the heap admits entries under the total
// order (score desc, vertex asc), merging the private heaps in any order
// reproduces exactly the serial answer, so parallel output is
// byte-identical to serial for every worker count.

// shardRange returns the half-open range [lo, hi) of shard w when count
// items are split into `workers` balanced contiguous shards.
func shardRange(count, workers, w int) (lo, hi int) {
	base, rem := count/workers, count%workers
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// forEachSharded runs f(i) for every i in [0, count) across `workers`
// goroutines (1 = the caller's goroutine), polling ctx with the same
// cadence as forEachCandidate. f must be safe for concurrent calls on
// distinct indices. On cancellation the already-running iterations finish
// and the first observed context error is returned.
func forEachSharded(ctx context.Context, count, workers int, everyIter bool, f func(i int)) error {
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			if everyIter || i%pollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			f(i)
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		lo, hi := shardRange(count, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if everyIter || (i-lo)%pollEvery == 0 {
					if err := ctx.Err(); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// scanAt scores every candidate position in [0, count) — vertex IDs come
// from at(i) — into a merged top-r heap using `workers` goroutines.
// newScore is called once per worker to produce that worker's scoring
// function, so scorers that carry scratch state stay goroutine-private.
// The returned count is the number of score computations (== count unless
// cancelled).
func scanAt(ctx context.Context, count int, at func(i int) int32, r, workers int, everyIter bool, newScore func() func(v int32) int) (*topRHeap, int, error) {
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	scorers := make([]func(v int32) int, workers)
	for i := range scorers {
		scorers[i] = newScore()
	}
	return scanWith(ctx, count, at, r, everyIter, scorers)
}

// scanWith is scanAt over pre-built per-worker scoring functions
// (len(scorers) bounds the pool size); scanRanked uses it to reuse one
// scorer set across every chunk instead of rebuilding scratch state per
// round.
func scanWith(ctx context.Context, count int, at func(i int) int32, r int, everyIter bool, scorers []func(v int32) int) (*topRHeap, int, error) {
	workers := len(scorers)
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		heap := newTopRHeap(r)
		score := scorers[0]
		for i := 0; i < count; i++ {
			if everyIter || i%pollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, 0, err
				}
			}
			v := at(i)
			heap.Offer(v, score(v))
		}
		return heap, count, nil
	}
	heaps := make([]*topRHeap, workers)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		lo, hi := shardRange(count, workers, w)
		heaps[w] = newTopRHeap(r)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			score := scorers[w]
			heap := heaps[w]
			for i := lo; i < hi; i++ {
				if everyIter || (i-lo)%pollEvery == 0 {
					if err := ctx.Err(); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
				v := at(i)
				heap.Offer(v, score(v))
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, 0, firstErr
	}
	merged := heaps[0]
	for _, h := range heaps[1:] {
		for _, e := range h.entries {
			merged.Offer(e.V, e.Score)
		}
	}
	return merged, count, nil
}

// scanTopR is scanAt over a candidate set in Params form: nil candidates
// mean the whole vertex range [0, n).
func scanTopR(ctx context.Context, n int, cands []int32, r, workers int, everyIter bool, newScore func() func(v int32) int) (*topRHeap, int, error) {
	count, at := n, func(i int) int32 { return int32(i) }
	if cands != nil {
		count, at = len(cands), func(i int) int32 { return cands[i] }
	}
	return scanAt(ctx, count, at, r, workers, everyIter, newScore)
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
	for i := range scorers {
		scorers[i] = newScore()
	}
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
		sub, n, err := scanWith(ctx, len(part), func(i int) int32 { return part[i].v }, r, true, scorers)
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
