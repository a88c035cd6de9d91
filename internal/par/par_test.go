package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// trippingContext reports itself cancelled once more than trip Err
// polls have been made (and on every poll after that).
type trippingContext struct {
	context.Context
	polls atomic.Int64
	trip  int64
}

func (c *trippingContext) Err() error {
	if c.polls.Add(1) > c.trip {
		return context.Canceled
	}
	return nil
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got := Workers(n); got < 1 {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS", n, got)
		}
	}
}

// TestForCoversEveryIndexOnce runs awkward (count, workers, block)
// triples and checks that the ranges tile [0, count) exactly, that w
// stays below the goroutine bound, and that no w runs two blocks at once
// (the busy flags are plain bools: an overlap is a data race under
// -race as well as a failed check).
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ count, workers, block int }{
		{0, 4, 1}, {1, 1, 1}, {1, 4, 1}, {10, 3, 1}, {3, 10, 1},
		{7, 7, 2}, {100, 16, 7}, {5, 2, 256}, {1000, 4, 256},
		{1000, 4, 1}, {257, 2, 256}, {64, 0, 1}, {9, 3, 0},
	} {
		visits := make([]atomic.Int32, tc.count)
		block := max(tc.block, 1)
		bound := min(Workers(tc.workers), (tc.count+block-1)/block)
		busy := make([]bool, max(bound, 1))
		var calls atomic.Int32
		err := For(context.Background(), tc.count, tc.workers, tc.block, func(w, lo, hi int) {
			calls.Add(1)
			if w < 0 || w >= len(busy) {
				t.Errorf("%+v: w = %d outside [0,%d)", tc, w, bound)
				return
			}
			if busy[w] {
				t.Errorf("%+v: worker %d runs two blocks at once", tc, w)
			}
			busy[w] = true
			if lo >= hi || hi-lo > block || hi > tc.count {
				t.Errorf("%+v: bad range [%d,%d)", tc, lo, hi)
			}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
			busy[w] = false
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range visits {
			if n := visits[i].Load(); n != 1 {
				t.Fatalf("%+v: index %d visited %d times", tc, i, n)
			}
		}
		if want := (tc.count + block - 1) / block; int(calls.Load()) != want {
			t.Fatalf("%+v: %d calls, want %d", tc, calls.Load(), want)
		}
	}
}

func TestForPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := For(ctx, 100, workers, 1, func(_, _, _ int) {
			t.Errorf("workers=%d: f called on a cancelled context", workers)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestForStopsClaimingAfterTrip lets trip polls pass: every poll precedes
// exactly one claim, so exactly trip blocks run before For reports the
// cancellation.
func TestForStopsClaimingAfterTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := &trippingContext{Context: context.Background(), trip: 5}
		var calls atomic.Int32
		err := For(ctx, 1000, workers, 3, func(_, _, _ int) { calls.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := calls.Load(); got != 5 {
			t.Fatalf("workers=%d: %d blocks ran after 5 clean polls, want 5", workers, got)
		}
	}
}

// TestForAllocsIndependentOfCount pins the pool's own allocations to a
// constant per call: claiming blocks allocates nothing.
func TestForAllocsIndependentOfCount(t *testing.T) {
	ctx := context.Background()
	f := func(_, _, _ int) {}
	for _, workers := range []int{1, 4} {
		small := testing.AllocsPerRun(20, func() { _ = For(ctx, 8, workers, 1, f) })
		large := testing.AllocsPerRun(20, func() { _ = For(ctx, 1<<14, workers, 1, f) })
		if large > small {
			t.Fatalf("workers=%d: %.0f allocs at count 1<<14, %.0f at count 8", workers, large, small)
		}
	}
}
