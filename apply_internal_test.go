package trussdiv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
	"trussdiv/internal/truss"
)

// TestApplyRepairsWithoutRebuilding pins the incremental-maintenance
// contract of the snapshot transition: after an Apply, every prepared
// ego-derived structure — the TSD and GCT indexes and the hybrid
// rankings — survives patched in place by the affected-vertex pass, and
// no ego builder is ever re-entered. The truss decomposition is left
// cold; querying every cell rebuilds it exactly once (for bound), the
// rebuild is byte-equal to a fresh decomposition, and every cell answers
// like a cold DB.
func TestApplyRepairsWithoutRebuilding(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 38,
	})
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One insertion between existing non-adjacent vertices.
	var u Updates
	for a := int32(0); a < int32(g.N()) && u.Insert == nil; a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				u.Insert = []Edge{{U: a, V: b}}
				break
			}
		}
	}
	if _, err := db.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	stats := db.Snapshot().ApplyStats()
	if stats == nil {
		t.Fatal("Apply onto a prepared DB recorded no repair stats")
	}
	if stats.TrussRepaired || stats.TrussRegion != 0 {
		t.Fatalf("Apply reported a truss repair: %+v", stats)
	}
	if stats.RankingsPatched == 0 {
		t.Fatalf("hybrid rankings were not patched: %+v", stats)
	}

	// Tripwire the ego builder: any engine that re-derives a patched
	// structure fails loudly.
	cache := db.Snapshot().cache
	cache.buildAllIdx = func(g *Graph, t2 core.BuildTargets) *core.BuildProducts {
		t.Errorf("apply-patched structures %+v were rebuilt from scratch", t2)
		return core.BuildAll(g, t2, 0)
	}
	checkTauColdThenRebuiltOnce(t, db, "after Apply")
	for _, engine := range []string{"online", "bound", "tsd", "gct", "hybrid"} {
		if _, _, err := db.TopR(ctx, NewQuery(4, 5, ViaEngine(engine))); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
	}
	checkCellsMatchCold(t, db, "after Apply", 4, 5)
	if cache.builds != 1 {
		t.Fatalf("builds = %d after querying every cell post-Apply, want 1 (the truss decomposition)", cache.builds)
	}
}

// TestApplyPatchesStoreLoadedTrussRankings: the hybrid engine's truss
// table patches like every other ranking table, so one loaded from an
// index store without its GCT index survives an Apply patched in place —
// counted in RankingsPatched, never rebuilt, answering like a cold DB on
// the edited graph.
func TestApplyPatchesStoreLoadedTrussRankings(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 40,
	})
	ctx := context.Background()
	dir := t.TempDir()
	seed, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx, "hybrid"); err != nil {
		t.Fatal(err)
	}
	for _, sec := range seed.StoreStatus().Sections {
		if sec == "gct" {
			t.Fatal("Prepare(hybrid) persisted a GCT index; the table needs none")
		}
	}

	db, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "hybrid"); err != nil {
		t.Fatal(err)
	}
	var u Updates
	for a := int32(0); a < int32(g.N()) && u.Insert == nil; a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				u.Insert = []Edge{{U: a, V: b}}
				break
			}
		}
	}
	if _, err := db.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if st := db.Snapshot().ApplyStats(); st == nil || st.RankingsPatched != 1 {
		t.Fatalf("ApplyStats = %+v, want the truss table patched", st)
	}
	if !db.IndexStats().HybridReady {
		t.Fatal("store-loaded truss rankings were dropped by Apply")
	}
	cache := db.Snapshot().cache
	cache.buildAllIdx = func(g *Graph, t2 core.BuildTargets) *core.BuildProducts {
		t.Error("apply-patched truss rankings were rebuilt from scratch")
		return core.BuildAll(g, t2, 0)
	}
	cold, err := Open(db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(3, 15, ViaEngine("hybrid"), WithContexts())
	got, _, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cold.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopR, want.TopR) || !reflect.DeepEqual(got.Contexts, want.Contexts) {
		t.Fatalf("patched hybrid answer diverges from a cold DB\n got %v\nwant %v", got.TopR, want.TopR)
	}
	if cache.builds != 0 {
		t.Fatalf("builds = %d after the post-Apply hybrid query, want 0", cache.builds)
	}
}

// TestApplyPatchesPFreeRankings pins the parameter-free repair
// contract: the pfree ranking is row 0 of each measure's table, so a
// small Apply patches the tables alone — ApplyStats counts one patch per
// table — and the k-less answers at the new epoch, read from the patched
// rows 0 without a build, are byte-equal to a cold DB on the edited
// graph.
func TestApplyPatchesPFreeRankings(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 39,
	})
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "pfree"); err != nil {
		t.Fatal(err)
	}

	var u Updates
	for a := int32(0); a < int32(g.N()) && u.Insert == nil; a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				u.Insert = []Edge{{U: a, V: b}}
				break
			}
		}
	}
	if _, err := db.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	st := db.Snapshot().ApplyStats()
	if st == nil {
		t.Fatal("Apply onto a prepared DB recorded no repair stats")
	}
	if want := len(AllMeasures()); st.RankingsPatched != want {
		t.Fatalf("RankingsPatched = %d, want %d (one per table)", st.RankingsPatched, want)
	}

	cache := db.Snapshot().cache
	cold, err := Open(db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMeasures() {
		q := NewQuery(0, 12, ViaEngine("pfree"), WithMeasure(m), WithContexts())
		got, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want, _, err := cold.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s (cold): %v", m, err)
		}
		if !reflect.DeepEqual(got.TopR, want.TopR) || !reflect.DeepEqual(got.Contexts, want.Contexts) {
			t.Fatalf("%s: patched pfree answer diverges from a cold rebuild\n got %v\nwant %v",
				m, got.TopR, want.TopR)
		}
	}
	if cache.builds != 0 {
		t.Fatalf("builds = %d after post-Apply pfree queries, want 0", cache.builds)
	}
}

// TestApplySharesUntouchedPFreeChunks: an 8+8 Apply splices each table's
// row 0, the parameter-free ranking, copy-on-write like its per-k rows.
// Every chunk of the previous epoch's row 0 that the batch had no reason
// to copy is shared by the new epoch's: a chunk from which no entry
// leaves, and into which or next to which no entry arrives (a rewritten
// neighbour absorbs a chunk only when it falls below the chunk size).
func TestApplySharesUntouchedPFreeChunks(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 3000, Attach: 3, Cliques: 600, MinSize: 4, MaxSize: 7, Seed: 43,
	})
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "hybrid", "comp", "kcore"); err != nil {
		t.Fatal(err)
	}
	row0 := func(m Measure) core.RankRow { return db.Snapshot().cache.rankedTable(m, false).Ranking(0) }
	rng := rand.New(rand.NewSource(43))
	shared, copied := map[Measure]int{}, map[Measure]int{}
	// One batch may move no parameter-free score of a measure; apply
	// batches until each row 0 has had a chunk copied.
	for batch := 0; batch < 20 && len(copied) < len(AllMeasures()); batch++ {
		before := map[Measure]core.RankRow{}
		for _, m := range AllMeasures() {
			before[m] = row0(m)
		}
		if _, err := db.Apply(ctx, streamUpdates(db.Graph(), rng, 8, 8)); err != nil {
			t.Fatal(err)
		}
		for _, m := range AllMeasures() {
			s, c := checkRowShared(t, fmt.Sprintf("batch %d %s", batch, m), before[m], row0(m))
			shared[m] += s
			if c > 0 {
				copied[m] += c
			}
		}
	}
	for _, m := range AllMeasures() {
		if shared[m] == 0 || copied[m] == 0 {
			t.Fatalf("%s: row 0 chunks shared %d times and copied %d times; want some of each",
				m, shared[m], copied[m])
		}
	}
}

// checkRowShared fails unless got, the splice of the ranking old, shares
// every chunk of old that no entry leaves and into which or next to
// which no entry arrives; it returns how many of old's chunks got shares
// and how many it copied.
func checkRowShared(t *testing.T, label string, old, got core.RankRow) (shared, copied int) {
	t.Helper()
	scores := func(r core.RankRow) map[int32]int32 {
		out := map[int32]int32{}
		for _, c := range r.Chunks() {
			for _, e := range c {
				out[e.V] = e.Score
			}
		}
		return out
	}
	oldScore, newScore := scores(old), scores(got)
	var arrived []core.RankPair
	for v, s := range newScore {
		if oldScore[v] != s {
			arrived = append(arrived, core.RankPair{V: v, Score: s})
		}
	}
	ahead := func(a, b core.RankPair) bool { return a.Score > b.Score || (a.Score == b.Score && a.V < b.V) }
	chunks := old.Chunks()
	leaves := make([]bool, len(chunks))
	for c, ch := range chunks {
		for _, e := range ch {
			leaves[c] = leaves[c] || newScore[e.V] != e.Score
		}
	}
	kept := map[*core.RankPair]int{}
	for _, c := range got.Chunks() {
		kept[&c[0]] = len(c)
	}
	for c := range chunks {
		lo, hi := max(c-1, 0), min(c+2, len(chunks))
		touched := slices.Contains(leaves[lo:hi], true)
		for _, e := range arrived {
			after := c == 0 || !ahead(e, chunks[lo][0])
			before := hi == len(chunks) || ahead(e, chunks[hi][0])
			touched = touched || (after && before)
		}
		switch {
		case kept[&chunks[c][0]] == len(chunks[c]):
			shared++
		case !touched:
			t.Fatalf("%s: row 0 chunk %d of %d was copied, want it shared", label, c, len(chunks))
		default:
			copied++
		}
	}
	return shared, copied
}

// trippingContext reports itself cancelled from its (trip+1)-th Err call
// on, which makes a cancellation land deterministically at one chosen
// check of Apply.
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

// TestApplyObservesCtxBetweenRepairPhases cancels one Apply at each of its
// ctx checks in turn — before validation, after the graph edit, and
// between the patch pass and the snapshot install. Every cancelled
// attempt returns context.Canceled and leaves the epoch, the snapshot and
// the index store connection as they were; the first attempt that passes
// every check installs a snapshot whose truss decomposition is cold until
// the first bound query rebuilds it, and every cell answers like a cold
// DB.
func TestApplyObservesCtxBetweenRepairPhases(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 41,
	})
	dir := t.TempDir()
	db, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	var u Updates
	for a := int32(0); a < int32(g.N()) && u.Insert == nil; a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				u.Insert = []Edge{{U: a, V: b}}
				break
			}
		}
	}
	u.Delete = []Edge{g.Edge(0)}

	before := db.Snapshot()
	cancelled := 0
	for trip := int64(0); ; trip++ {
		ctx := &trippingContext{Context: context.Background(), trip: trip}
		_, err := db.Apply(ctx, u)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trip %d: err = %v, want context.Canceled", trip, err)
		}
		cancelled++
		if db.Snapshot() != before || db.Epoch() != before.Epoch() {
			t.Fatalf("trip %d: a cancelled Apply installed epoch %d", trip, db.Epoch())
		}
		before.cache.mu.Lock()
		storeDir := before.cache.dir
		before.cache.mu.Unlock()
		if storeDir != dir {
			t.Fatalf("trip %d: a cancelled Apply took the index store from the live snapshot", trip)
		}
	}
	if cancelled < 3 {
		t.Fatalf("Apply observed ctx %d times, want 3 (the last between the patch pass and the snapshot install)", cancelled)
	}
	if db.Epoch() != before.Epoch()+1 {
		t.Fatalf("epoch %d after the successful Apply, want %d", db.Epoch(), before.Epoch()+1)
	}
	if st := db.Snapshot().ApplyStats(); st == nil || st.Affected == 0 || st.TrussRepaired {
		t.Fatalf("ApplyStats = %+v, want a patch pass and no truss repair", st)
	}
	checkTauColdThenRebuiltOnce(t, db, "after the cancelled attempts")
	checkCellsMatchCold(t, db, "after the cancelled attempts", 4, 10)
}

// TestApplyNeverBuildsTau: Apply neither builds nor carries the global
// truss decomposition. Across a stream of batches on a fully prepared DB
// that serves no bound query, the tau builder never runs and no new
// snapshot holds a decomposition. Each epoch rebuilds it at
// most once: concurrent bound queries after the next Apply share one
// build. Until then bound's estimate equals its estimate on a fresh Open
// of the edited graph, and SaveIndexes persists no truss section; a warm
// reopen from that store answers bound queries byte-equal to the applied
// DB.
func TestApplyNeverBuildsTau(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 43,
	})
	ctx := context.Background()
	dir := t.TempDir()
	db, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "comp", "kcore", "pfree"); err != nil {
		t.Fatal(err)
	}
	// Apply hands its builders to every snapshot it derives, so one
	// tripwire covers the whole stream.
	db.Snapshot().cache.buildTau = func(g *Graph) []int32 {
		t.Error("Apply built the truss decomposition")
		return truss.DecomposeParallel(g, 0)
	}
	rng := rand.New(rand.NewSource(4343))
	for step := 0; step < 6; step++ {
		if _, err := db.Apply(ctx, streamUpdates(db.Graph(), rng, 3, 3)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		c := db.Snapshot().cache
		c.mu.Lock()
		carried := c.tau != nil
		c.mu.Unlock()
		if carried {
			t.Fatalf("step %d: Apply carried the truss decomposition into the new snapshot", step)
		}
	}

	if _, err := db.Apply(ctx, streamUpdates(db.Graph(), rng, 3, 3)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	cache := snap.cache
	cache.buildTau = func(g *Graph) []int32 { return truss.DecomposeParallel(g, 0) }

	// The router prices the cold decomposition exactly as on a fresh DB.
	fresh, err := Open(snap.Graph())
	if err != nil {
		t.Fatal(err)
	}
	bound, err := snap.Engine("bound")
	if err != nil {
		t.Fatal(err)
	}
	freshBound, err := fresh.Snapshot().Engine("bound")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		NewQuery(3, 10),
		NewQuery(4, 50, WithContexts()),
		NewQuery(3, 10, WithMeasure(MeasureComponent)),
	} {
		if got, want := bound.Cost(q), freshBound.Cost(q); got != want {
			t.Fatalf("bound Cost(%+v) after Apply = %+v, want %+v as on a fresh Open", q, got, want)
		}
	}

	// SaveIndexes builds nothing, so the store holds no truss section.
	if _, err := db.SaveIndexes(); err != nil {
		t.Fatal(err)
	}
	if secs := db.StoreStatus().Sections; slices.Contains(secs, "truss") {
		t.Fatalf("SaveIndexes after Apply persisted the truss section; sections %v", secs)
	}
	if cache.builds != 0 {
		t.Fatalf("builds = %d after SaveIndexes, want 0", cache.builds)
	}
	warm, err := Open(snap.Graph(), WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.StoreStatus(); !st.Warm || st.LoadErr != nil {
		t.Fatalf("warm reopen rejected the post-Apply store: %+v", st)
	}

	// Four concurrent bound queries (distinct r, so none is a result cache
	// hit) share one rebuild.
	qs := make([]Query, 4)
	got := make([]*Result, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		qs[i] = NewQuery(3, 5+i, ViaEngine("bound"), WithContexts())
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := db.TopR(ctx, qs[i])
			if err != nil {
				t.Errorf("bound query %d: %v", i, err)
			}
			got[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	cache.mu.Lock()
	builds := cache.builds
	cache.mu.Unlock()
	if builds != 1 {
		t.Fatalf("builds = %d after 4 concurrent bound queries, want 1", builds)
	}
	for i, q := range qs {
		want, _, err := warm.TopR(ctx, q)
		if err != nil {
			t.Fatalf("warm bound query %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i].TopR, want.TopR) || !reflect.DeepEqual(got[i].Contexts, want.Contexts) {
			t.Fatalf("bound query %d: warm reopen diverges from the applied DB\n   warm %v\napplied %v",
				i, want.TopR, got[i].TopR)
		}
	}
}
