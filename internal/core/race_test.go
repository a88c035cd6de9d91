package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"trussdiv/internal/gen"
)

// Race coverage for the parallel execution layer: the worker-pool scans
// and the per-worker TSD scorers must stay data-race-free while many
// searches run concurrently over shared indexes. Run with
// `make check-race` (go test -race ./...) to arm the detector.

func TestParallelSearchRace(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 400, Attach: 3, Cliques: 80, MinSize: 4, MaxSize: 8, Seed: 9,
	})
	gctIdx := BuildGCTIndex(g)
	engines := map[string]searcher{
		"online": NewOnline(g),
		"bound":  NewBound(g),
		"tsd":    NewTSD(BuildTSDIndex(g)),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	}
	ctx := context.Background()
	p := Params{K: 3, R: 10, Workers: 4}
	want := map[string]*Result{}
	for name, s := range engines {
		res, _, err := s.Search(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = res
	}

	// Every engine searched concurrently with itself and the others, each
	// search internally sharded: workers share the graph and the indexes
	// but nothing mutable.
	var wg sync.WaitGroup
	errs := make(chan error, len(engines)*4)
	for name, s := range engines {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(name string, s searcher) {
				defer wg.Done()
				res, _, err := s.Search(ctx, p)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, want[name]) {
					t.Errorf("%s: concurrent result differs from serial-time result", name)
				}
			}(name, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTSDScorersConcurrent drives many goroutines' Score calls over one
// shared TSD index — the exact access pattern of the sharded tsd search.
func TestTSDScorersConcurrent(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 8, Seed: 10,
	})
	idx := BuildTSDIndex(g)
	want := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		want[v] = idx.Score(int32(v), 3)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for v := offset; v < g.N(); v += 8 {
				if got := idx.Score(int32(v), 3); got != want[v] {
					t.Errorf("scorer %d: score(%d) = %d, want %d", offset, v, got, want[v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
