package trussdiv_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"trussdiv"
)

// End-to-end measure axis: the component and core measures must be
// servable through every public layer — DB routing, engine pins, Batch,
// the index store — with answers byte-identical to the naive baseline
// models, while unqualified (truss) queries keep their pre-measure
// behavior exactly.

// measureReference computes the naive reference answer for measure m
// straight from the public baseline models (NewCompDiv / NewCoreDiv):
// every vertex scored and fully sorted under the canonical order (score
// descending, vertex ascending), contexts read off the model — no DB
// engine involved.
func measureReference(t *testing.T, g *trussdiv.Graph, m trussdiv.Measure, k int32, r int) *trussdiv.Result {
	t.Helper()
	model := trussdiv.NewCompDiv(g)
	if m == trussdiv.MeasureCore {
		model = trussdiv.NewCoreDiv(g)
	}
	all := make([]trussdiv.VertexScore, g.N())
	for v := range all {
		all[v] = trussdiv.VertexScore{V: int32(v), Score: model.Score(int32(v), k)}
	}
	// Stable: ties keep ascending vertex order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	res := &trussdiv.Result{TopR: all[:min(r, len(all))], Contexts: map[int32][][]int32{}}
	for _, e := range res.TopR {
		c := model.Contexts(e.V, k)
		if len(c) == 0 {
			c = nil
		}
		res.Contexts[e.V] = c
	}
	return res
}

func TestMeasuresServedEndToEnd(t *testing.T) {
	g := overlayGraph(t)
	ctx := context.Background()
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "comp", "kcore"); err != nil {
		t.Fatal(err)
	}
	const k, r = int32(3), 25
	for _, m := range []trussdiv.Measure{trussdiv.MeasureComponent, trussdiv.MeasureCore} {
		want := measureReference(t, g, m, k, r)
		native := "comp"
		if m == trussdiv.MeasureCore {
			native = "kcore"
		}
		// Every engine serving the measure, routed and pinned, serial and
		// parallel, must match the naive reference byte for byte.
		for _, engine := range []string{"", "online", "bound", native} {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				q := trussdiv.NewQuery(k, r, trussdiv.WithMeasure(m),
					trussdiv.WithContexts(), trussdiv.WithWorkers(workers))
				if engine != "" {
					q.Engine = engine
				}
				res, stats, err := db.TopR(ctx, q)
				if err != nil {
					t.Fatalf("measure %s engine %q: %v", m, engine, err)
				}
				if !reflect.DeepEqual(res.TopR, want.TopR) {
					t.Fatalf("measure %s engine %q workers %d: answer diverged\n got %v\nwant %v",
						m, engine, workers, res.TopR, want.TopR)
				}
				if !reflect.DeepEqual(res.Contexts, want.Contexts) {
					t.Fatalf("measure %s engine %q: contexts diverged", m, engine)
				}
				if engine == "" && stats.Engine == "" {
					t.Fatalf("measure %s: routed stats missing engine name", m)
				}
			}
		}
	}
}

func TestMeasureBatchMixes(t *testing.T) {
	g := overlayGraph(t)
	ctx := context.Background()
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	const k, r = int32(3), 15
	qs := []trussdiv.Query{
		trussdiv.NewQuery(k, r),
		trussdiv.NewQuery(k, r, trussdiv.WithMeasure(trussdiv.MeasureComponent)),
		trussdiv.NewQuery(k, r, trussdiv.WithMeasure(trussdiv.MeasureCore)),
		trussdiv.NewQuery(k, r, trussdiv.WithMeasure(trussdiv.MeasureComponent), trussdiv.ViaEngine("bound")),
		trussdiv.NewQuery(k, r, trussdiv.WithMeasure(trussdiv.MeasureTruss), trussdiv.ViaEngine("tsd")),
	}
	results, err := db.Batch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		single, _, err := db.TopR(ctx, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.TopR, single.TopR) {
			t.Fatalf("batch query %d diverged from single-query answer", i)
		}
	}
	// Batch-aware routing labels must name engines serving each measure.
	names, err := db.BatchEngines(qs)
	if err != nil {
		t.Fatal(err)
	}
	matrix := map[trussdiv.Measure]map[string]bool{}
	for _, info := range db.Measures() {
		matrix[info.Measure] = map[string]bool{}
		for _, e := range info.Engines {
			matrix[info.Measure][e] = true
		}
	}
	for i, q := range qs {
		if !matrix[q.Measure.Normalize()][names[i]] {
			t.Fatalf("batch query %d (measure %s) routed to %q, outside the measure's engines %v",
				i, q.Measure.Normalize(), names[i], matrix[q.Measure.Normalize()])
		}
	}
}

func TestMeasuresListing(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	infos := db.Measures()
	if len(infos) != 3 {
		t.Fatalf("Measures() = %v, want 3 entries", infos)
	}
	want := map[trussdiv.Measure][]string{
		trussdiv.MeasureTruss:     {"online", "bound", "tsd", "gct", "hybrid", "pfree"},
		trussdiv.MeasureComponent: {"online", "bound", "comp", "pfree"},
		trussdiv.MeasureCore:      {"online", "bound", "kcore", "pfree"},
	}
	for _, info := range infos {
		if !reflect.DeepEqual(info.Engines, want[info.Measure]) {
			t.Fatalf("measure %s serves %v, want %v", info.Measure, info.Engines, want[info.Measure])
		}
		if info.Default != (info.Measure == trussdiv.MeasureTruss) {
			t.Fatalf("measure %s default flag wrong", info.Measure)
		}
	}
}

func TestMeasureEnginePinMismatch(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []trussdiv.Query{
		trussdiv.NewQuery(3, 5, trussdiv.ViaEngine("tsd"), trussdiv.WithMeasure(trussdiv.MeasureComponent)),
		trussdiv.NewQuery(3, 5, trussdiv.ViaEngine("hybrid"), trussdiv.WithMeasure(trussdiv.MeasureCore)),
		trussdiv.NewQuery(3, 5, trussdiv.ViaEngine("comp"), trussdiv.WithMeasure(trussdiv.MeasureCore)),
		trussdiv.NewQuery(3, 5, trussdiv.ViaEngine("kcore"), trussdiv.WithMeasure(trussdiv.MeasureTruss)),
	}
	for i, q := range cases {
		_, _, err := db.TopR(ctx, q)
		if !errors.Is(err, trussdiv.ErrUnsupportedMeasure) {
			t.Fatalf("case %d: err = %v, want ErrUnsupportedMeasure", i, err)
		}
		var ue *trussdiv.UnsupportedMeasureError
		if !errors.As(err, &ue) || ue.Engine != q.Engine {
			t.Fatalf("case %d: error %v does not name engine %q", i, err, q.Engine)
		}
	}
	// An explicit engine with an empty measure keeps its native semantics
	// (the pre-measure contract for engine=comp).
	if _, _, err := db.TopR(ctx, trussdiv.NewQuery(3, 5, trussdiv.ViaEngine("comp"))); err != nil {
		t.Fatalf("engine pin without measure: %v", err)
	}
	// Unknown measure names are rejected on routed queries too.
	if _, _, err := db.TopR(ctx, trussdiv.NewQuery(3, 5, trussdiv.WithMeasure("bogus"))); err == nil {
		t.Fatal("unknown measure accepted")
	}
}

// TestMeasureRankingsStoreRoundTrip: Prepare builds the per-measure
// rankings, SaveIndexes persists them as measure-tagged sections, and
// a fresh DB over the same directory serves the measures from disk
// without rebuilding anything.
func TestMeasureRankingsStoreRoundTrip(t *testing.T) {
	g := overlayGraph(t)
	dir := t.TempDir()
	ctx := context.Background()
	const k, r = int32(3), 20

	seed, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx, "comp", "kcore"); err != nil {
		t.Fatal(err)
	}
	if st := seed.IndexStats(); len(st.MeasureRankings) != 2 {
		t.Fatalf("prepared measure rankings = %v, want component+core", st.MeasureRankings)
	}
	answers := map[trussdiv.Measure]*trussdiv.Result{}
	for _, m := range []trussdiv.Measure{trussdiv.MeasureComponent, trussdiv.MeasureCore} {
		res, _, err := seed.TopR(ctx, trussdiv.NewQuery(k, r, trussdiv.WithMeasure(m), trussdiv.WithContexts()))
		if err != nil {
			t.Fatal(err)
		}
		answers[m] = res
	}

	warm, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := warm.StoreStatus()
	if !st.Warm {
		t.Fatalf("store not warm after Prepare: %+v", st)
	}
	hasTagged := false
	for _, sec := range st.Sections {
		if sec == "rankings@component" {
			hasTagged = true
		}
	}
	if !hasTagged {
		t.Fatalf("persisted sections %v lack the measure-tagged rankings", st.Sections)
	}
	for _, m := range []trussdiv.Measure{trussdiv.MeasureComponent, trussdiv.MeasureCore} {
		native := "comp"
		if m == trussdiv.MeasureCore {
			native = "kcore"
		}
		// The warm DB must answer from the loaded rankings: identical
		// result, no rebuild (IndexStats shows the rankings ready right
		// after the first query touches them).
		res, _, err := warm.TopR(ctx, trussdiv.NewQuery(k, r, trussdiv.WithMeasure(m),
			trussdiv.WithContexts(), trussdiv.ViaEngine(native)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, answers[m]) {
			t.Fatalf("measure %s: warm answer diverged from the pre-persist answer", m)
		}
	}
	idx := warm.IndexStats()
	if len(idx.MeasureRankings) != 2 {
		t.Fatalf("warm DB measure rankings = %v, want both loaded", idx.MeasureRankings)
	}
	if idx.BuildTime != 0 {
		t.Fatalf("warm DB built for %v; wanted pure loads", idx.BuildTime)
	}
}

// TestApplyPatchesMeasureRankings: an edge update no longer invalidates
// the per-measure rankings — they survive the Apply patched in place
// (only vertices in the edit's triangle neighborhoods re-score) and the
// very next query, without a re-Prepare, matches a cold DB over the
// edited graph.
func TestApplyPatchesMeasureRankings(t *testing.T) {
	g := overlayGraph(t)
	ctx := context.Background()
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "comp"); err != nil {
		t.Fatal(err)
	}
	if len(db.IndexStats().MeasureRankings) != 1 {
		t.Fatal("component rankings not prepared")
	}
	if _, err := db.Apply(ctx, trussdiv.Updates{Insert: []trussdiv.Edge{{U: 0, V: int32(g.N() - 1)}}}); err != nil {
		t.Fatal(err)
	}
	if got := db.IndexStats().MeasureRankings; len(got) != 1 {
		t.Fatalf("measure rankings did not survive Apply patched: %v", got)
	}
	if ast := db.Snapshot().ApplyStats(); ast == nil || ast.RankingsPatched == 0 {
		t.Fatalf("ApplyStats does not record the ranking patch: %+v", ast)
	}
	want := measureReference(t, db.Graph(), trussdiv.MeasureComponent, 3, 20)
	res, _, err := db.TopR(ctx, trussdiv.NewQuery(3, 20,
		trussdiv.WithMeasure(trussdiv.MeasureComponent), trussdiv.WithContexts(), trussdiv.ViaEngine("comp")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.TopR, want.TopR) || !reflect.DeepEqual(res.Contexts, want.Contexts) {
		t.Fatal("patched rankings diverged from a cold DB over the edited graph")
	}
}

// TestDefaultRoutingIgnoresMeasureEngines pins the PR-4 contract:
// unqualified queries route within the truss engine set — the native
// measure engines are reachable only through their measure or an
// explicit pin.
func TestDefaultRoutingIgnoresMeasureEngines(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []trussdiv.Query{
		trussdiv.NewQuery(3, 10),
		trussdiv.NewQuery(3, 10, trussdiv.WithContexts()),
		trussdiv.NewQuery(3, 10, trussdiv.WithMeasure(trussdiv.MeasureTruss)),
	} {
		eng := db.Route(q)
		if eng == nil {
			t.Fatal("no route")
		}
		switch eng.Name() {
		case "online", "bound", "tsd", "gct", "hybrid":
		default:
			t.Fatalf("truss query routed to %q", eng.Name())
		}
		if _, _, err := db.TopR(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnknownMeasureErrorCategory: an unknown measure name is a parse
// error everywhere — with or without an engine pin — never an
// ErrUnsupportedMeasure (that category is reserved for real measures
// outside an engine's row). The unchecked Route preview returns nil for
// it, as documented; ResolveEngine is the checked path.
func TestUnknownMeasureErrorCategory(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	for _, q := range []trussdiv.Query{
		{K: 3, R: 5, Measure: "comp"}, // typo for "component"
		{K: 3, R: 5, Measure: "comp", Engine: "online"},
	} {
		_, rerr := snap.ResolveEngine(q)
		if rerr == nil || errors.Is(rerr, trussdiv.ErrUnsupportedMeasure) {
			t.Fatalf("query %+v: err = %v, want a plain unknown-measure parse error", q, rerr)
		}
		if !strings.Contains(rerr.Error(), "unknown measure") {
			t.Fatalf("query %+v: err = %v, want it to name the unknown measure", q, rerr)
		}
	}
	if eng := db.Route(trussdiv.Query{K: 3, R: 5, Measure: "comp"}); eng != nil {
		t.Fatalf("Route with unknown measure = %v, want nil", eng.Name())
	}
}
