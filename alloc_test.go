//go:build !race

package trussdiv_test

import (
	"context"
	"testing"

	"trussdiv"
)

// TestMeasurePointScoreAllocFree pins every branch of the DB's point
// path at zero steady-state allocations: a truss Score through the
// shared scorer (cold DB) and through the GCT index (prepared), a
// component or core ScoreMeasure, and ScorePFree under every measure.
// The scorers are pooled per snapshot, so no call builds an ego-network
// of its own. (The race detector makes sync.Pool drop items at random,
// hence !race.)
func TestMeasurePointScoreAllocFree(t *testing.T) {
	g := overlayGraph(t)
	cold, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	indexed := openPrepared(t, g, nil, "gct")
	ctx := context.Background()
	n := int32(g.N())
	type pointCase struct {
		name  string
		score func(v int32) (int, error)
	}
	cases := []pointCase{
		{"Score/scorer", func(v int32) (int, error) { return cold.Score(ctx, v, 3) }},
		{"Score/gct", func(v int32) (int, error) { return indexed.Score(ctx, v, 3) }},
	}
	for _, m := range trussdiv.AllMeasures() {
		if m != trussdiv.MeasureTruss {
			cases = append(cases, pointCase{"ScoreMeasure/" + string(m),
				func(v int32) (int, error) { return cold.ScoreMeasure(ctx, v, 3, m) }})
		}
		cases = append(cases, pointCase{"ScorePFree/" + string(m),
			func(v int32) (int, error) { return cold.ScorePFree(ctx, v, m) }})
	}
	for _, c := range cases {
		score := func(v int32) {
			if _, err := c.score(v); err != nil {
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
			t.Errorf("%s allocates %.1f/op in steady state, want 0", c.name, got)
		}
	}
}

// TestRouteAllocFree pins routing at zero allocations: ResolveEngine and
// Route walk the snapshot's fixed engine catalogue and price each
// candidate in place, for fixed-k queries under every measure and for
// the k-less query alike.
func TestRouteAllocFree(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	for _, q := range []trussdiv.Query{
		trussdiv.NewQuery(4, 10),
		trussdiv.NewQuery(4, 10, trussdiv.WithMeasure(trussdiv.MeasureComponent)),
		trussdiv.NewQuery(4, 10, trussdiv.WithMeasure(trussdiv.MeasureCore)),
		trussdiv.NewQuery(0, 10),
	} {
		if got := testing.AllocsPerRun(100, func() {
			if _, err := snap.ResolveEngine(q); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("k=%d measure=%q: ResolveEngine allocates %.1f/op, want 0", q.K, q.Measure, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if snap.Route(q) == nil {
				t.Fatal("Route returned nil")
			}
		}); got != 0 {
			t.Errorf("k=%d measure=%q: Route allocates %.1f/op, want 0", q.K, q.Measure, got)
		}
	}
}
