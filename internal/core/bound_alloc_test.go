//go:build !race

package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/truss"
)

// TestPooledScanAllocFree pins the warm cost of a small scan: a
// one-worker online or bound scan of 10 candidates over a 20k-vertex
// graph borrows its scorers from the shared pool and reuses its bound
// level, so it allocates less than the 4n-byte extraction marker a fresh
// VertexScorer would grow (or the O(m) graph a per-query sparsification
// would build). The least of several runs is taken, with the collector
// off so that no GC empties the pool between them. (The race detector
// makes sync.Pool drop items at random, hence !race.)
func TestPooledScanAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 20000, Attach: 3, Cliques: 2000, MinSize: 4, MaxSize: 8, Seed: 42,
	})
	cands := make([]int32, 10)
	for i := range cands {
		cands[i] = int32(i * 1999)
	}
	limit := uint64(4 * g.N())
	scorers := NewScorers(g)
	for name, s := range map[string]searcher{
		"online": NewOnlineFrom(scorers),
		"bound":  NewBoundFrom(scorers, func() []int32 { return truss.Decompose(g) }),
	} {
		for _, m := range AllMeasures() {
			p := Params{K: 3, R: 5, Workers: 1, Measure: m, Candidates: cands}
			search := func() {
				if _, _, err := s.Search(context.Background(), p); err != nil {
					t.Fatal(err)
				}
			}
			search() // builds the level and grows the pooled scratch
			least := ^uint64(0)
			for range 10 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				search()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least >= limit {
				t.Errorf("%s/%s: a warm scan allocates %d bytes, want < 4n = %d", name, m, least, limit)
			}
		}
	}
}
