// Package par is the one worker pool behind every parallel loop in the
// module: the query scans, the per-ego index pass, the truss h-index
// rounds and batched queries all hand their independent per-index work
// to For.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For calls f(w, lo, hi) for consecutive block-sized index ranges
// [lo, hi) that together cover [0, count) exactly once. It runs at most
// min(Workers(workers), ⌈count/block⌉) goroutines, the caller's among
// them: with one, every call happens on the caller's goroutine. The
// goroutines claim ranges from a shared counter, so a goroutine that
// drew cheap indexes claims more of them; w in [0, goroutines) names the
// calling goroutine, and no two calls with the same w overlap, so f may
// index per-worker scratch by w without locking. Calls on distinct w run
// concurrently.
//
// ctx is polled (Err only) before every block. Once it reports an error
// no goroutine claims another block; the calls already running finish
// and For returns that error. A block < 1 is treated as 1.
func For(ctx context.Context, count, workers, block int, f func(w, lo, hi int)) error {
	block = max(block, 1)
	workers = min(Workers(workers), (count+block-1)/block)
	if workers <= 1 {
		for lo := 0; lo < count; lo += block {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(0, lo, min(lo+block, count))
		}
		return nil
	}
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	run := func(w int) {
		for {
			if err := ctx.Err(); err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			lo := int(next.Add(int64(block))) - block
			if lo >= count {
				return
			}
			f(w, lo, min(lo+block, count))
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	return firstErr
}
