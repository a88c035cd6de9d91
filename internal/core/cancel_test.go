package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"trussdiv/internal/testutil"
)

// trippingContext reports itself cancelled after a fixed number of Err
// polls, making mid-loop cancellation deterministic: the search must
// observe the cancellation at its next poll, wherever that poll sits.
// The counter is atomic because parallel searches poll from every worker.
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

type searcher interface {
	Search(ctx context.Context, p Params) (*Result, *Stats, error)
}

func TestSearchAlreadyCancelled(t *testing.T) {
	g := randomGraph(t, 60, 400, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gctIdx := BuildGCTIndex(g)
	for name, s := range map[string]searcher{
		"online": NewOnline(g),
		"bound":  NewBound(g),
		"tsd":    NewTSD(BuildTSDIndex(g)),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	} {
		res, stats, err := s.Search(ctx, Params{K: 3, R: 5})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil || stats != nil {
			t.Fatalf("%s: non-nil result after cancellation", name)
		}
	}
}

// TestSearchCancelledMidLoop runs at the default worker count and at an
// explicit 4 workers, so the parallel loops are cancelled even when
// GOMAXPROCS is 1.
func TestSearchCancelledMidLoop(t *testing.T) {
	g := randomGraph(t, 500, 3000, 6)
	gctIdx := BuildGCTIndex(g)
	for _, workers := range []int{0, 4} {
		for name, s := range map[string]searcher{
			"online": NewOnline(g),
			"bound":  NewBound(g),
			"tsd":    NewTSD(BuildTSDIndex(g)),
			"gct":    NewGCT(gctIdx),
			"hybrid": buildRanked(g, MeasureTruss),
		} {
			// Let a handful of polls pass, then trip: the search must stop
			// at its next context check instead of finishing the scan.
			ctx := &trippingContext{Context: context.Background(), trip: 3}
			_, _, err := s.Search(ctx, Params{K: 3, R: 5, Workers: workers, SkipContexts: name == "hybrid"})
			if name == "hybrid" {
				// Ranking reads poll once up front; with contexts skipped
				// the remaining work is too cheap to guarantee another poll.
				ctx2 := &trippingContext{Context: context.Background(), trip: 0}
				_, _, err2 := s.Search(ctx2, Params{K: 3, R: 5, Workers: workers})
				if !errors.Is(err2, context.Canceled) {
					t.Fatalf("hybrid workers=%d: err = %v, want context.Canceled", workers, err2)
				}
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want context.Canceled", name, workers, err)
			}
		}
	}
}

func TestSearchDeadlineExceeded(t *testing.T) {
	g := randomGraph(t, 40, 200, 7)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, _, err := NewOnline(g).Search(ctx, Params{K: 3, R: 5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSearchCandidateSubset(t *testing.T) {
	g := randomGraph(t, 50, 300, 8)
	subset := []int32{3, 7, 11, 19, 23, 42}
	scorer := NewScorer(g)
	gctIdx := BuildGCTIndex(g)
	for name, s := range map[string]searcher{
		"online": NewOnline(g),
		"bound":  NewBound(g),
		"tsd":    NewTSD(BuildTSDIndex(g)),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	} {
		res, _, err := s.Search(context.Background(), Params{K: 3, R: len(subset), Candidates: subset})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.TopR) != len(subset) {
			t.Fatalf("%s: answer size %d, want %d", name, len(res.TopR), len(subset))
		}
		in := map[int32]bool{}
		for _, v := range subset {
			in[v] = true
		}
		for _, e := range res.TopR {
			if !in[e.V] {
				t.Fatalf("%s: answer vertex %d outside candidate set", name, e.V)
			}
			if want := scorer.Score(e.V, 3); e.Score != want {
				t.Fatalf("%s: score(%d) = %d, want %d", name, e.V, e.Score, want)
			}
		}
	}
	// Out-of-range candidates are rejected.
	_, _, err := NewOnline(g).Search(context.Background(), Params{K: 3, R: 1, Candidates: []int32{99}})
	if err == nil {
		t.Fatal("want error for out-of-range candidate")
	}
}

func TestSearchDuplicateCandidatesDeduped(t *testing.T) {
	g := randomGraph(t, 30, 150, 10)
	gctIdx := BuildGCTIndex(g)
	for name, s := range map[string]searcher{
		"online": NewOnline(g),
		"bound":  NewBound(g),
		"tsd":    NewTSD(BuildTSDIndex(g)),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	} {
		res, _, err := s.Search(context.Background(),
			Params{K: 3, R: 3, Candidates: []int32{5, 5, 9, 9, 5, 13}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.TopR) != 3 {
			t.Fatalf("%s: answer size %d, want 3", name, len(res.TopR))
		}
		seen := map[int32]bool{}
		for _, e := range res.TopR {
			if seen[e.V] {
				t.Fatalf("%s: vertex %d duplicated in answer %v", name, e.V, res.TopR)
			}
			seen[e.V] = true
		}
	}
}

// TestDedupCandidatesFirstOccurrenceWins pins the candidate dedup: the
// first occurrence of each ID keeps its place, the radix-sorted copy
// matches a comparison sort over all byte widths, a list without repeats
// is returned as is, and the first out-of-range ID is the error.
func TestDedupCandidatesFirstOccurrenceWins(t *testing.T) {
	for _, tc := range []struct{ in, want []int32 }{
		{[]int32{5, 5, 9, 9, 5, 13}, []int32{5, 9, 13}},
		{[]int32{3, 1, 3, 2, 1, 0}, []int32{3, 1, 2, 0}},
		{[]int32{7, 7, 7}, []int32{7}},
		{[]int32{}, []int32{}},
	} {
		got, err := dedupCandidates(tc.in, 20)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Fatalf("dedupCandidates(%v) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	rng := testutil.Rand(t, 17)
	for trial := 0; trial < 50; trial++ {
		in := make([]int32, rng.Intn(300))
		top := []int32{300, 1 << 12, 1 << 20, math.MaxInt32}[trial%4]
		for i := range in {
			in[i] = rng.Int31n(top)
		}
		want := slices.Sorted(slices.Values(in))
		if got := radixSorted(in); !slices.Equal(got, want) {
			t.Fatalf("radixSorted(%v) = %v, want %v", in, got, want)
		}
	}
	distinct := []int32{4, 2, 8}
	if got, _ := dedupCandidates(distinct, 20); &got[0] != &distinct[0] {
		t.Fatal("a list without repeats was copied")
	}
	_, err := dedupCandidates([]int32{1, 1, 25, -1}, 20)
	if want := "core: candidate vertex 25 out of range [0,20)"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

func TestSearchSkipOptions(t *testing.T) {
	g := randomGraph(t, 40, 200, 9)
	res, stats, err := NewOnline(g).Search(context.Background(),
		Params{K: 3, R: 5, SkipContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("stats missing: every engine returns its Stats")
	}
	if res.Contexts != nil {
		t.Fatalf("contexts present despite SkipContexts")
	}
	if len(res.TopR) != 5 {
		t.Fatalf("answer size %d, want 5", len(res.TopR))
	}
}
