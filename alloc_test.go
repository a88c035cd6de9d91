//go:build !race

package trussdiv_test

import (
	"context"
	"testing"

	"trussdiv"
)

// TestMeasurePointScoreAllocFree pins the serving path of a component or
// core point query at zero steady-state allocations: DB.ScoreMeasure
// resolves the measure's ranked engine, which borrows a pooled scorer
// from the snapshot instead of building an ego-network per call. (The
// race detector makes sync.Pool drop items at random, hence !race.)
func TestMeasurePointScoreAllocFree(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := int32(db.Graph().N())
	for _, m := range []trussdiv.Measure{trussdiv.MeasureComponent, trussdiv.MeasureCore} {
		score := func(v int32) {
			if _, err := db.ScoreMeasure(ctx, v, 3, m); err != nil {
				t.Fatal(err)
			}
		}
		// One full sweep grows the pooled scorer's scratch to its high-water
		// mark. AllocsPerRun pins GOMAXPROCS to 1 while it runs, so the
		// sweep runs inside one too: the warmed scorer then sits in the
		// same per-P pool slot the measured calls borrow from.
		testing.AllocsPerRun(1, func() {
			for v := int32(0); v < n; v++ {
				score(v)
			}
		})
		var v int32
		if got := testing.AllocsPerRun(300, func() {
			score(v % n)
			v++
		}); got != 0 {
			t.Errorf("%s: ScoreMeasure allocates %.1f/op in steady state, want 0", m, got)
		}
	}
}
