package trussdiv_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trussdiv"
)

func overlayGraph(tb testing.TB) *trussdiv.Graph {
	tb.Helper()
	return trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 500, Attach: 3, Cliques: 100, MinSize: 4, MaxSize: 8, Seed: 11,
	})
}

// openPrepared opens g with opts and readies the named engines
// (Prepare's default set when none are named).
func openPrepared(tb testing.TB, g *trussdiv.Graph, opts []trussdiv.Option, names ...string) *trussdiv.DB {
	tb.Helper()
	db, err := trussdiv.Open(g, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Prepare(context.Background(), names...); err != nil {
		tb.Fatal(err)
	}
	return db
}

func TestEngineRegistryUnknownName(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Engine("nope")
	if err == nil {
		t.Fatal("want error for unknown engine")
	}
	if !errors.Is(err, trussdiv.ErrUnknownEngine) {
		t.Fatalf("errors.Is(err, ErrUnknownEngine) = false for %v", err)
	}
	var ue *trussdiv.UnknownEngineError
	if !errors.As(err, &ue) {
		t.Fatalf("err %T is not *UnknownEngineError", err)
	}
	if ue.Name != "nope" || len(ue.Known) == 0 {
		t.Fatalf("UnknownEngineError = %+v", ue)
	}
	if !strings.Contains(err.Error(), "gct") {
		t.Fatalf("error does not list known engines: %v", err)
	}
}

func TestEnginesCatalogue(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"online", "bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"}
	if got := db.Engines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	ctx := context.Background()
	for _, name := range want {
		e, err := db.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Fatalf("Engine(%q).Name() = %q", name, e.Name())
		}
		k := int32(4)
		if name == "pfree" {
			k = 0 // the parameter-free engine forbids a threshold
		}
		q := trussdiv.NewQuery(k, 1, trussdiv.WithContexts())
		res, _, err := e.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.TopR) != 1 {
			t.Fatalf("%s: answer size %d", name, len(res.TopR))
		}
	}
}

func TestRoutingIndexAbsentVsPresent(t *testing.T) {
	g := overlayGraph(t)
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	q := trussdiv.NewQuery(4, 10)

	// No index built: an index-free engine must win (its cost carries no
	// build term, and a one-off query never amortizes an index build).
	cold := db.Route(q)
	if name := cold.Name(); name != "bound" {
		t.Fatalf("cold route = %q, want bound", name)
	}
	if est := cold.Cost(q); est.Build != 0 {
		t.Fatalf("cold-routed engine has build cost %v", est.Build)
	}

	// GCT index present: routing must move to it for context queries.
	ctx := context.Background()
	if err := db.Prepare(ctx, "gct"); err != nil {
		t.Fatal(err)
	}
	warm := db.Route(trussdiv.NewQuery(4, 100, trussdiv.WithContexts()))
	if name := warm.Name(); name != "gct" {
		t.Fatalf("warm route = %q, want gct", name)
	}

	// With the hybrid rankings also built, a ranking-only query routes to
	// hybrid (the paper's Exp-4: it only loses once contexts are needed).
	if err := db.Prepare(ctx, "hybrid"); err != nil {
		t.Fatal(err)
	}
	if name := db.Route(trussdiv.NewQuery(4, 10)).Name(); name != "hybrid" {
		t.Fatalf("ranking-only route = %q, want hybrid", name)
	}
}

func TestDBTopRReportsEngineAndAgreesWithPinned(t *testing.T) {
	db := openPrepared(t, overlayGraph(t), nil, "gct")
	ctx := context.Background()
	q := trussdiv.NewQuery(4, 10, trussdiv.WithContexts())
	res, stats, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.Engine != db.Route(q).Name() {
		t.Fatalf("stats = %+v, want routed engine name", stats)
	}
	gct, err := db.Engine("gct")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := gct.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ScoreMultiset(), want.ScoreMultiset()) {
		t.Fatalf("routed scores %v != gct scores %v", res.ScoreMultiset(), want.ScoreMultiset())
	}
}

func TestCancelledContextAbortsTopR(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := trussdiv.NewQuery(4, 10, trussdiv.WithContexts())
	for _, name := range db.Engines() {
		e, err := db.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := e.TopR(ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil || stats != nil {
			t.Fatalf("%s: non-nil result after cancellation", name)
		}
	}
	if _, _, err := db.TopR(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("DB.TopR err = %v, want context.Canceled", err)
	}
	// Every point query observes the cancelled context before choosing
	// between index and scorer.
	canceled := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s err = %v, want context.Canceled", what, err)
		}
	}
	_, err = db.Score(ctx, 0, 4)
	canceled("Score", err)
	_, err = db.Contexts(ctx, 0, 4)
	canceled("Contexts", err)
	for _, m := range trussdiv.AllMeasures() {
		_, err = db.ScoreMeasure(ctx, 0, 4, m)
		canceled("ScoreMeasure/"+string(m), err)
		_, err = db.ContextsMeasure(ctx, 0, 4, m)
		canceled("ContextsMeasure/"+string(m), err)
		_, err = db.ScorePFree(ctx, 0, m)
		canceled("ScorePFree/"+string(m), err)
		_, err = db.ContextsPFree(ctx, 0, m)
		canceled("ContextsPFree/"+string(m), err)
	}
	// The cancelled queries must not have triggered any index build.
	if st := db.IndexStats(); st.TSDReady || st.GCTReady || st.HybridReady || st.TauReady ||
		len(st.PFreeRankings) > 0 {
		t.Fatalf("index built despite cancelled context: %+v", st)
	}
}

// TestDirectAndPinnedErrorsAgree holds every engine to one query
// contract: a direct Engine.TopR call and the same query pinned with
// ViaEngine fail with the same message and the same sentinel (or both
// succeed), for every k on both sides of the K axis and every measure,
// valid or not.
func TestDirectAndPinnedErrorsAgree(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	class := func(err error) string {
		switch {
		case errors.Is(err, trussdiv.ErrBadQuery):
			return "ErrBadQuery"
		case errors.Is(err, trussdiv.ErrUnsupportedMeasure):
			return "ErrUnsupportedMeasure"
		}
		return "neither"
	}
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	measures := []trussdiv.Measure{"", "bogus",
		trussdiv.MeasureTruss, trussdiv.MeasureComponent, trussdiv.MeasureCore}
	cases := 0
	for _, name := range db.Engines() {
		e, err := db.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int32{0, 1, 4} {
			for _, m := range measures {
				q := trussdiv.NewQuery(k, 3, trussdiv.WithMeasure(m), trussdiv.WithoutStats())
				_, _, direct := e.TopR(ctx, q)
				_, _, pinned := db.TopR(ctx, trussdiv.NewQuery(k, 3, trussdiv.WithMeasure(m),
					trussdiv.WithoutStats(), trussdiv.ViaEngine(name)))
				if text(direct) != text(pinned) || class(direct) != class(pinned) {
					t.Errorf("%s k=%d measure=%q: direct %s %q, pinned %s %q", name, k, m,
						class(direct), text(direct), class(pinned), text(pinned))
				}
				cases++
			}
		}
	}
	if cases != 120 {
		t.Fatalf("ran %d cases, want 120", cases)
	}
}

func TestQueryOptionsOnDB(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Stats opt-out.
	res, stats, err := db.TopR(ctx, trussdiv.NewQuery(4, 1, trussdiv.WithoutStats()))
	if err != nil {
		t.Fatal(err)
	}
	if stats != nil {
		t.Fatalf("stats = %+v, want nil", stats)
	}
	if res.Contexts != nil {
		t.Fatal("contexts present without WithContexts")
	}

	// Candidate subsets restrict the answer.
	sub := []int32{1, 2, 3, 4}
	res, _, err = db.TopR(ctx, trussdiv.NewQuery(4, 4, trussdiv.WithCandidates(sub...)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.TopR {
		if e.V < 1 || e.V > 4 {
			t.Fatalf("answer vertex %d outside candidates", e.V)
		}
	}
}

func TestDBScoreAndContexts(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	score, err := db.Score(ctx, trussdiv.PaperExampleV, 4)
	if err != nil {
		t.Fatal(err)
	}
	if score != 3 {
		t.Fatalf("score = %d, want 3", score)
	}
	contexts, err := db.Contexts(ctx, trussdiv.PaperExampleV, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(contexts) != 3 {
		t.Fatalf("contexts = %d, want 3", len(contexts))
	}
	if _, err := db.Score(ctx, 999, 4); err == nil {
		t.Fatal("want error for out-of-range vertex")
	}
	if _, err := db.Score(ctx, 0, 1); err == nil {
		t.Fatal("want error for k < 2")
	}
}

func TestBaselineEnginesValidateUniformly(t *testing.T) {
	db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"comp", "kcore"} {
		e, err := db.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		// k < 2 is rejected with and without a candidate subset.
		if _, _, err := e.TopR(ctx, trussdiv.Query{K: 1, R: 5}); err == nil {
			t.Fatalf("%s: k=1 accepted without candidates", name)
		}
		if _, _, err := e.TopR(ctx, trussdiv.Query{K: 1, R: 5, Candidates: []int32{1}}); err == nil {
			t.Fatalf("%s: k=1 accepted with candidates", name)
		}
		// Duplicate candidates collapse to one answer slot.
		res, _, err := e.TopR(ctx, trussdiv.Query{K: 4, R: 2, Candidates: []int32{1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TopR) != 1 {
			t.Fatalf("%s: duplicate candidate answer = %v", name, res.TopR)
		}
	}
}

func TestBatchMatchesIndividualQueries(t *testing.T) {
	g := overlayGraph(t)
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := []trussdiv.Query{
		trussdiv.NewQuery(3, 5),
		trussdiv.NewQuery(4, 10, trussdiv.WithContexts(), trussdiv.WithWorkers(4)),
		trussdiv.NewQuery(4, 3, trussdiv.WithCandidates(1, 2, 3, 4, 5)),
		trussdiv.NewQuery(5, 8, trussdiv.ViaEngine("online")),
		trussdiv.NewQuery(2, 1, trussdiv.ViaEngine("gct")),
	}
	results, err := db.Batch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("Batch returned %d results for %d queries", len(results), len(qs))
	}
	for i, q := range qs {
		want, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].TopR, want.TopR) {
			t.Fatalf("query %d: batch answer %v, individual answer %v", i, results[i].TopR, want.TopR)
		}
		if !reflect.DeepEqual(results[i].Contexts, want.Contexts) {
			t.Fatalf("query %d: batch contexts differ from individual query", i)
		}
	}

	// Empty batch is a no-op.
	if res, err := db.Batch(ctx, nil); res != nil || err != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

func TestBatchAmortizesIndexBuilds(t *testing.T) {
	g := overlayGraph(t)
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	// One ranking-only query cost-routes to an index-free engine; a large
	// batch of them amortizes the index build, so Batch must prepare an
	// index up front and the post-batch IndexStats must show it.
	if name := db.Route(trussdiv.NewQuery(4, 10)).Name(); name != "bound" {
		t.Fatalf("single-query route = %q, want bound", name)
	}
	qs := make([]trussdiv.Query, 64)
	for i := range qs {
		qs[i] = trussdiv.NewQuery(4, 10)
	}
	if _, err := db.Batch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	st := db.IndexStats()
	if !st.GCTReady && !st.TSDReady && !st.HybridReady {
		t.Fatalf("no index built by a 64-query batch: %+v", st)
	}
}

func TestBatchErrors(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Unknown pinned engine fails before any query runs.
	_, err = db.Batch(ctx, []trussdiv.Query{trussdiv.NewQuery(3, 1, trussdiv.ViaEngine("nope"))})
	if !errors.Is(err, trussdiv.ErrUnknownEngine) {
		t.Fatalf("err = %v, want ErrUnknownEngine", err)
	}

	// An invalid query anywhere in the batch fails the whole batch.
	res, err := db.Batch(ctx, []trussdiv.Query{
		trussdiv.NewQuery(3, 5),
		{K: 1, R: 5},
	})
	if err == nil || res != nil {
		t.Fatalf("batch with invalid query = (%v, %v), want error", res, err)
	}

	// Cancellation aborts the batch.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Batch(cancelled, []trussdiv.Query{trussdiv.NewQuery(3, 5)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v, want context.Canceled", err)
	}

	// The failures above all happen before the fan-out. Routing does not
	// check candidates, so an out-of-range one fails inside it, and the
	// whole batch still fails with that error.
	qs := make([]trussdiv.Query, 64)
	for i := range qs {
		qs[i] = trussdiv.NewQuery(int32(2+i%4), 5, trussdiv.WithContexts())
	}
	bad := append([]trussdiv.Query(nil), qs...)
	bad[37] = trussdiv.NewQuery(3, 5, trussdiv.WithCandidates(0, int32(db.Graph().N())))
	res, err = db.Batch(ctx, bad)
	if err == nil || !strings.Contains(err.Error(), "out of range") || res != nil {
		t.Fatalf("batch with an out-of-range candidate = (%d results, %v), want its error and nil results", len(res), err)
	}

	// A context cancelled once Prepare has polled it fails the fan-out
	// even when no query would poll it again (every answer is cached):
	// never a results slice with unanswered nil slots.
	if _, err := db.Batch(ctx, qs); err != nil {
		t.Fatal(err)
	}
	tripped := &cancelAfterPolls{trip: 1}
	tripped.Context, tripped.cancel = context.WithCancel(ctx)
	defer tripped.cancel()
	res, err = db.Batch(tripped, qs)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("batch cancelled after Prepare = (%d results, %v), want context.Canceled and nil results", len(res), err)
	}
}

// cancelAfterPolls is a real cancelable context that cancels itself
// right after its trip-th Err poll (which still reports nil), so the
// cancellation reaches contexts derived from it.
type cancelAfterPolls struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	trip   int64
}

func (c *cancelAfterPolls) Err() error {
	err := c.Context.Err()
	if c.polls.Add(1) == c.trip {
		c.cancel()
	}
	return err
}

// TestBatchConcurrentWithQueries exercises Batch under load while other
// goroutines issue individual queries — the race-detector target for the
// facade's fan-out path.
func TestBatchConcurrentWithQueries(t *testing.T) {
	db := openPrepared(t, overlayGraph(t), nil)
	ctx := context.Background()
	qs := make([]trussdiv.Query, 16)
	for i := range qs {
		qs[i] = trussdiv.NewQuery(int32(2+i%4), 5, trussdiv.WithWorkers(2))
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Batch(ctx, qs); err != nil {
				t.Errorf("batch: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range qs {
				if _, _, err := db.TopR(ctx, q); err != nil {
					t.Errorf("topr: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestViaEngineOverridesDBPin: a per-query pin wins over the DB's own
// cost routing, which sends this query to bound on a cold DB.
func TestViaEngineOverridesDBPin(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	q := trussdiv.NewQuery(4, 5)
	if name := db.Route(q).Name(); name != "bound" {
		t.Fatalf("cold route = %q, want bound", name)
	}
	_, stats, err := db.TopR(context.Background(), trussdiv.NewQuery(4, 5, trussdiv.ViaEngine("gct")))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine != "gct" {
		t.Fatalf("engine = %q, want gct (per-query pin wins)", stats.Engine)
	}
}
