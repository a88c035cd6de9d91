package trussdiv

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
	"trussdiv/internal/truss"
)

// TestApplyRepairsWithoutRebuilding pins the incremental-maintenance
// contract of the snapshot transition: after an Apply, EVERY prepared
// structure survives repaired in place — the ego-network indexes and the
// hybrid rankings via the affected-vertex patch pass, the truss
// decomposition via truss.Repair. No builder is ever re-entered;
// a small edit batch must not pay O(graph) anywhere.
func TestApplyRepairsWithoutRebuilding(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 38,
	})
	ctx := context.Background()
	db, err := Open(g, WithPreparedIndexes())
	if err != nil {
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
	if !stats.TrussRepaired {
		t.Fatalf("single-edge Apply fell back to a full decomposition: %+v", stats)
	}
	if stats.TrussRegion <= 0 || stats.TrussRegion >= db.Graph().M()/2 {
		t.Fatalf("repair region %d edges is not local (m = %d)", stats.TrussRegion, db.Graph().M())
	}
	if stats.RankingsPatched == 0 {
		t.Fatalf("hybrid rankings were not patched: %+v", stats)
	}

	// Tripwire every builder: any engine that re-derives a global
	// structure after the repair fails loudly.
	cache := db.Snapshot().cache
	cache.buildTau = func(g *Graph) ([]int32, []int32) {
		t.Error("apply-repaired truss decomposition was rebuilt from scratch")
		return truss.DecomposeFull(g, 1)
	}
	cache.buildAllIdx = func(g *Graph, t2 core.BuildTargets) *core.BuildProducts {
		t.Errorf("apply-patched structures %+v were rebuilt from scratch", t2)
		return core.BuildAll(g, t2, 0)
	}
	for _, engine := range []string{"online", "bound", "tsd", "gct", "hybrid"} {
		if _, _, err := db.TopR(ctx, NewQuery(4, 5, ViaEngine(engine))); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
	}
	if cache.builds != 0 {
		t.Fatalf("builds = %d after querying every engine post-Apply, want 0", cache.builds)
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
// contract: the pfree ranking is the k = 0 row of each measure's table,
// so a small Apply patches the tables alone — ApplyStats counts one patch
// per table — and the k-less answers at the new epoch, derived from the
// patched tables without a build, are byte-equal to a cold DB on the
// edited graph.
func TestApplyPatchesPFreeRankings(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 39,
	})
	ctx := context.Background()
	db, err := Open(g, WithPreparedIndexes())
	if err != nil {
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
	if st == nil || !st.TrussRepaired {
		t.Fatalf("Apply fell back to a rebuild: %+v", st)
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
// between the patch pass and the truss repair. Every cancelled attempt
// returns context.Canceled and leaves the epoch, the snapshot and the
// index store connection as they were; the first attempt that passes
// every check repairs the truss decomposition and answers like a cold DB.
func TestApplyObservesCtxBetweenRepairPhases(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 41,
	})
	dir := t.TempDir()
	db, err := Open(g, WithIndexDir(dir), WithPreparedIndexes())
	if err != nil {
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
		t.Fatalf("Apply observed ctx %d times, want 3 (the last between the patch pass and the truss repair)", cancelled)
	}
	if db.Epoch() != before.Epoch()+1 {
		t.Fatalf("epoch %d after the successful Apply, want %d", db.Epoch(), before.Epoch()+1)
	}
	if st := db.Snapshot().ApplyStats(); st == nil || !st.TrussRepaired {
		t.Fatalf("ApplyStats = %+v, want the truss decomposition repaired", st)
	}
	cold, err := Open(db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, engine := range []string{"bound", "tsd", "gct", "hybrid"} {
		q := NewQuery(4, 10, ViaEngine(engine), WithContexts())
		got, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		want, _, err := cold.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s (cold): %v", engine, err)
		}
		if !reflect.DeepEqual(got.TopR, want.TopR) || !reflect.DeepEqual(got.Contexts, want.Contexts) {
			t.Fatalf("%s: answer after the cancelled attempts diverges from a cold DB", engine)
		}
	}
}
