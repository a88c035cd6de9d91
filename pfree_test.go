package trussdiv_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"trussdiv"
)

// Parameter-free parity: the pfree engine — prepared or online, serial
// or parallel, routed or pinned, single query or Batch — must be
// byte-identical to a brute-force aggregator that restates the
// definition through the fixed-k point API. The brute force never
// touches the pfree code path: it probes db.ScoreMeasure level by level and
// applies pfree(v) = max{h >= 1 : s_m(v, max(h, 2)) >= h} by hand.

// naivePFreeScore computes the parameter-free score of one vertex from
// the definition. s_m(v, k) = 0 for every k > deg(v) under all three
// measures (a context at level k has at least k vertices and lives
// inside the ego network), so probing stops at the degree.
func naivePFreeScore(t *testing.T, db *trussdiv.DB, v int32, m trussdiv.Measure) int {
	t.Helper()
	ctx := context.Background()
	s2, err := db.ScoreMeasure(ctx, v, 2, m)
	if err != nil {
		t.Fatalf("ScoreMeasure(%d, 2, %s): %v", v, m, err)
	}
	best := 0
	switch {
	case s2 >= 2:
		best = 2
	case s2 >= 1:
		best = 1
	}
	for k := 3; k <= db.Graph().Degree(v); k++ {
		s, err := db.ScoreMeasure(ctx, v, int32(k), m)
		if err != nil {
			t.Fatalf("ScoreMeasure(%d, %d, %s): %v", v, k, m, err)
		}
		if s >= k {
			best = k
		}
	}
	return best
}

// naivePFreeTopR ranks every vertex by its brute-force score under the
// canonical total order (score descending, id ascending — which a
// stable ascending scan already produces) and returns the top r.
func naivePFreeTopR(t *testing.T, db *trussdiv.DB, m trussdiv.Measure, r int) []trussdiv.VertexScore {
	t.Helper()
	byScore := map[int][]trussdiv.VertexScore{}
	max := 0
	for v := int32(0); int(v) < db.Graph().N(); v++ {
		if s := naivePFreeScore(t, db, v, m); s > 0 {
			byScore[s] = append(byScore[s], trussdiv.VertexScore{V: v, Score: s})
			if s > max {
				max = s
			}
		}
	}
	out := make([]trussdiv.VertexScore, 0, r)
	for s := max; s >= 1 && len(out) < r; s-- {
		out = append(out, byScore[s]...)
	}
	if len(out) > r {
		out = out[:r]
	}
	return out
}

func TestPFreeParityRandomized(t *testing.T) {
	configs := []trussdiv.OverlayConfig{
		{N: 120, Attach: 2, Cliques: 30, MinSize: 3, MaxSize: 6, Seed: 101},
		{N: 200, Attach: 3, Cliques: 40, MinSize: 4, MaxSize: 8, Seed: 202},
		{N: 260, Attach: 4, Cliques: 50, MinSize: 4, MaxSize: 9, Seed: 303},
	}
	ctx := context.Background()
	const r = 15
	for _, cfg := range configs {
		g := trussdiv.CommunityOverlay(cfg)
		// The brute-force probe runs on its own cold DB so point queries
		// go through each measure's native engine, not the pfree path.
		probe, err := trussdiv.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range trussdiv.AllMeasures() {
			want := naivePFreeTopR(t, probe, m, r)
			for _, prepared := range []bool{false, true} {
				db, err := trussdiv.Open(g)
				if err != nil {
					t.Fatal(err)
				}
				if prepared {
					if err := db.Prepare(ctx, "pfree"); err != nil {
						t.Fatal(err)
					}
				}
				var queries []trussdiv.Query
				for _, engine := range []string{"", "pfree"} {
					for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
						label := fmt.Sprintf("seed=%d measure=%s prepared=%v engine=%q workers=%d",
							cfg.Seed, m, prepared, engine, workers)
						q := trussdiv.NewQuery(0, r, trussdiv.WithMeasure(m),
							trussdiv.WithContexts(), trussdiv.WithWorkers(workers))
						if engine != "" {
							q.Engine = engine
						}
						queries = append(queries, q)
						res, stats, err := db.TopR(ctx, q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if stats.Engine != "pfree" {
							t.Fatalf("%s: k-less query answered by %q, want pfree", label, stats.Engine)
						}
						if !reflect.DeepEqual(res.TopR, want) {
							t.Fatalf("%s: diverged from brute force\n got %v\nwant %v",
								label, res.TopR, want)
						}
						for _, e := range res.TopR {
							cs, err := db.ContextsPFree(ctx, e.V, m)
							if err != nil {
								t.Fatalf("%s: ContextsPFree(%d): %v", label, e.V, err)
							}
							if !reflect.DeepEqual(res.Contexts[e.V], cs) {
								t.Fatalf("%s: contexts of %d diverge from the point query", label, e.V)
							}
							// The contexts live at the discriminating level
							// k* = max(score, 2) under the fixed-k measure API.
							lvl := int32(e.Score)
							if lvl < 2 {
								lvl = 2
							}
							fixed, err := probe.ContextsMeasure(ctx, e.V, lvl, m)
							if err != nil {
								t.Fatalf("%s: ContextsMeasure(%d, %d): %v", label, e.V, lvl, err)
							}
							if !reflect.DeepEqual(cs, fixed) {
								t.Fatalf("%s: contexts of %d are not the measure contexts at k* = %d",
									label, e.V, lvl)
							}
						}
					}
				}
				// Batch execution of the same queries is byte-identical too.
				batched, err := db.Batch(ctx, queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range batched {
					if !reflect.DeepEqual(res.TopR, want) {
						t.Fatalf("seed=%d measure=%s prepared=%v: Batch[%d] diverged from brute force",
							cfg.Seed, m, prepared, i)
					}
				}
			}
		}
	}
}

// TestPFreePointParity: ScorePFree agrees with the brute-force score on
// every vertex, and vertices scoring 0 have no pfree contexts.
func TestPFreePointParity(t *testing.T) {
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 150, Attach: 3, Cliques: 30, MinSize: 4, MaxSize: 7, Seed: 404,
	})
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range trussdiv.AllMeasures() {
		for v := int32(0); int(v) < g.N(); v++ {
			want := naivePFreeScore(t, db, v, m)
			got, err := db.ScorePFree(ctx, v, m)
			if err != nil {
				t.Fatalf("ScorePFree(%d, %s): %v", v, m, err)
			}
			if got != want {
				t.Fatalf("ScorePFree(%d, %s) = %d, brute force says %d", v, m, got, want)
			}
			cs, err := db.ContextsPFree(ctx, v, m)
			if err != nil {
				t.Fatalf("ContextsPFree(%d, %s): %v", v, m, err)
			}
			if want == 0 && len(cs) != 0 {
				t.Fatalf("vertex %d scores 0 under %s but has %d contexts", v, m, len(cs))
			}
			if want > 0 && len(cs) == 0 {
				t.Fatalf("vertex %d scores %d under %s but has no contexts", v, want, m)
			}
		}
	}
}

// TestPFreeBadQueryContract pins the engine-aware K validation at the
// root API: every violation is a typed *BadQueryError matching
// ErrBadQuery, naming the engine whose contract was broken.
func TestPFreeBadQueryContract(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name   string
		q      trussdiv.Query
		engine string // expected BadQueryError.Engine ("" = any)
	}{
		{"fixed-k engine pinned without k", trussdiv.NewQuery(0, 5, trussdiv.ViaEngine("gct")), "gct"},
		{"pfree pinned with k", trussdiv.NewQuery(4, 5, trussdiv.ViaEngine("pfree")), "pfree"},
		{"k=1 is valid for no engine", trussdiv.NewQuery(1, 5), ""},
		{"k=1 pinned", trussdiv.NewQuery(1, 5, trussdiv.ViaEngine("hybrid")), "hybrid"},
	}
	for _, tc := range cases {
		_, _, err := db.TopR(ctx, tc.q)
		if err == nil {
			t.Fatalf("%s: query succeeded, want *BadQueryError", tc.name)
		}
		if !errors.Is(err, trussdiv.ErrBadQuery) {
			t.Fatalf("%s: errors.Is(err, ErrBadQuery) = false for %v", tc.name, err)
		}
		var bq *trussdiv.BadQueryError
		if !errors.As(err, &bq) {
			t.Fatalf("%s: err %T is not *BadQueryError", tc.name, err)
		}
		if bq.K != tc.q.K {
			t.Fatalf("%s: BadQueryError.K = %d, want %d", tc.name, bq.K, tc.q.K)
		}
		if tc.engine != "" && bq.Engine != tc.engine {
			t.Fatalf("%s: BadQueryError.Engine = %q, want %q", tc.name, bq.Engine, tc.engine)
		}
		// A failed validation never reaches an engine or the cache.
		if rc := db.ResultCacheStats(); rc.Misses != 0 || rc.Hits != 0 {
			t.Fatalf("%s: invalid query touched the result cache: %+v", tc.name, rc)
		}
	}
	// Batch surfaces the same typed error.
	if _, err := db.Batch(ctx, []trussdiv.Query{trussdiv.NewQuery(0, 5), trussdiv.NewQuery(1, 5)}); !errors.Is(err, trussdiv.ErrBadQuery) {
		t.Fatalf("Batch with a k=1 member: err = %v, want ErrBadQuery", err)
	}
}

// TestPFreeBuildCostMatchesTable: pfree readies a measure by building
// that measure's ranked table, so on a cold DB it prices the build
// exactly as the table's own engine does, for every measure; once the
// tables are ready both price them at zero.
func TestPFreeBuildCostMatchesTable(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	pfree, err := db.Engine("pfree")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[trussdiv.Measure]string{
		trussdiv.MeasureTruss:     "hybrid",
		trussdiv.MeasureComponent: "comp",
		trussdiv.MeasureCore:      "kcore",
	}
	check := func(state string, cold bool) {
		t.Helper()
		for _, m := range trussdiv.AllMeasures() {
			table, err := db.Engine(tables[m])
			if err != nil {
				t.Fatal(err)
			}
			got := pfree.Cost(trussdiv.NewQuery(0, 10, trussdiv.WithMeasure(m))).Build
			want := table.Cost(trussdiv.NewQuery(4, 10, trussdiv.WithMeasure(m))).Build
			if got != want || (want > 0) != cold {
				t.Errorf("%s %s: pfree build cost %v, %s build cost %v", state, m, got, tables[m], want)
			}
		}
	}
	check("cold", true)
	if err := db.Prepare(context.Background(), "pfree"); err != nil {
		t.Fatal(err)
	}
	check("prepared", false)
}
