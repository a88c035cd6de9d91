package trussdiv

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
	"trussdiv/internal/store"
)

// TestPrepareMultiUsesSharedPass pins the multi-structure Prepare
// contract: when several ego-derived structures are missing at once,
// Prepare builds them through one BuildAll sweep — no structure takes a
// pass of its own — and the prepared engines answer byte-identically to
// a DB prepared one structure at a time.
func TestPrepareMultiUsesSharedPass(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 17,
	})
	ctx := context.Background()

	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	cache := db.Snapshot().cache
	passes := 0
	buildAll := cache.buildAllIdx
	cache.buildAllIdx = func(g *Graph, targets core.BuildTargets) *core.BuildProducts {
		passes++
		return buildAll(g, targets)
	}
	names := []string{"tsd", "gct", "hybrid", "comp", "kcore", "pfree"}
	if err := db.Prepare(ctx, names...); err != nil {
		t.Fatal(err)
	}
	// One shared pass built all five ego-derived structures (pfree reads
	// the three tables' k = 0 rows, derived in O(n + table) and uncounted).
	if cache.builds != 5 {
		t.Fatalf("builds = %d after multi-name Prepare, want 5", cache.builds)
	}
	if passes != 1 {
		t.Fatalf("multi-name Prepare ran %d BuildAll passes, want 1", passes)
	}

	// Answers match a DB prepared one name at a time.
	control, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := control.Prepare(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	for _, engine := range []string{"tsd", "gct", "hybrid", "comp", "kcore"} {
		q := NewQuery(3, 10, ViaEngine(engine), WithContexts())
		if engine == "comp" {
			q = NewQuery(3, 10, ViaEngine(engine), WithContexts(), WithMeasure(MeasureComponent))
		}
		if engine == "kcore" {
			q = NewQuery(3, 10, ViaEngine(engine), WithContexts(), WithMeasure(MeasureCore))
		}
		got, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		want, _, err := control.TopR(ctx, q)
		if err != nil {
			t.Fatalf("%s (control): %v", engine, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shared-pass answer diverges from per-name Prepare", engine)
		}
	}
	for _, m := range AllMeasures() {
		q := NewQuery(0, 10, ViaEngine("pfree"), WithMeasure(m), WithContexts())
		got, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatalf("pfree/%s: %v", m, err)
		}
		want, _, err := control.TopR(ctx, q)
		if err != nil {
			t.Fatalf("pfree/%s (control): %v", m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pfree/%s: shared-pass answer diverges from per-name Prepare", m)
		}
	}
}

// TestPrepareSingleUsesBuildAll pins the one build path: a singleton —
// prepared by name or built lazily by the first query that needs it —
// is a one-target pass of the same per-vertex driver, never a builder of
// its own.
func TestPrepareSingleUsesBuildAll(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	cache := db.Snapshot().cache
	var passes []core.BuildTargets
	buildAll := cache.buildAllIdx
	cache.buildAllIdx = func(g *Graph, targets core.BuildTargets) *core.BuildProducts {
		passes = append(passes, targets)
		return buildAll(g, targets)
	}
	if err := db.Prepare(ctx, "tsd"); err != nil {
		t.Fatal(err)
	}
	// A second multi-name Prepare with everything but one structure in
	// memory builds only that one.
	if err := db.Prepare(ctx, "tsd", "gct"); err != nil {
		t.Fatal(err)
	}
	// A cold comp query builds nothing (it scans); a cold hybrid query
	// builds the truss table on first use.
	for _, q := range []Query{
		NewQuery(3, 5, ViaEngine("comp"), WithMeasure(MeasureComponent)),
		NewQuery(3, 5, ViaEngine("hybrid")),
	} {
		if _, _, err := db.TopR(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	want := []core.BuildTargets{
		{TSD: true},
		{GCT: true},
		{Measures: []Measure{MeasureTruss}},
	}
	if !reflect.DeepEqual(passes, want) {
		t.Fatalf("BuildAll passes = %+v, want %+v", passes, want)
	}
	if cache.builds != len(want) {
		t.Fatalf("builds = %d, want %d", cache.builds, len(want))
	}
}

// TestApplyMakesOnePatchPass pins the maintenance side of the one
// driver: with every ego-derived structure in memory, an Apply repairs
// the TSD and GCT indexes and every per-k table (whose k = 0 rows are the
// pfree rankings) from one PatchAll pass over the affected vertices — one extraction and
// one decomposition per vertex, not one per structure — and never enters
// the ego build path. The truss decomposition is left for the first
// bound query to rebuild; afterwards every cell answers like a cold DB.
func TestApplyMakesOnePatchPass(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 41,
	})
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"); err != nil {
		t.Fatal(err)
	}
	cache := db.Snapshot().cache
	cache.buildAllIdx = func(g *Graph, t2 core.BuildTargets) *core.BuildProducts {
		t.Errorf("Apply entered the build path for %+v", t2)
		return core.BuildAll(g, t2, 0)
	}
	var passes []core.BuildTargets
	var patched []int32
	patchAll := cache.patchAllIdx
	cache.patchAllIdx = func(g *Graph, old *core.BuildProducts, t2 core.BuildTargets, affected []int32) *core.BuildProducts {
		passes = append(passes, t2)
		patched = affected
		return patchAll(g, old, t2, affected)
	}

	u := Updates{Insert: []Edge{{U: 0, V: 299}}, Delete: []Edge{g.Edge(7)}}
	if g.HasEdge(0, 299) {
		t.Fatal("fixture: edge (0,299) already present")
	}
	if _, err := db.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	want := []core.BuildTargets{{TSD: true, GCT: true, Measures: AllMeasures()}}
	if !reflect.DeepEqual(passes, want) {
		t.Fatalf("Apply patch passes = %+v, want exactly %+v", passes, want)
	}
	affected := core.AffectedVertices(g, db.Graph(), u.Insert, u.Delete)
	if !reflect.DeepEqual(patched, affected) {
		t.Fatalf("patch pass walked %v, want the affected set %v", patched, affected)
	}
	st := db.Snapshot().ApplyStats()
	if st == nil || st.Affected != len(affected) || st.TrussRepaired {
		t.Fatalf("ApplyStats = %+v, want Affected = %d and no truss repair", st, len(affected))
	}
	checkTauColdThenRebuiltOnce(t, db, "after Apply")
	checkCellsMatchCold(t, db, "after Apply", 4, 10)
	// Three per-k tables; the pfree rankings are their k = 0 rows.
	if st.RankingsPatched != 3 {
		t.Fatalf("RankingsPatched = %d, want 3", st.RankingsPatched)
	}
}

// TestPrepareUnknownNameBuildsNothing: Prepare looks up every name before
// readying anything, so a list with one unknown name fails with
// *UnknownEngineError and leaves the cache cold — no build, nothing in
// memory, and no store written.
func TestPrepareUnknownNameBuildsNothing(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	var unknown *UnknownEngineError
	if err := db.Prepare(ctx, "tsd", "gct", "nope"); !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownEngineError", err)
	}
	if st := db.IndexStats(); !reflect.DeepEqual(st, IndexStats{}) {
		t.Fatalf("IndexStats = %+v after a failed Prepare, want nothing ready", st)
	}
	if n := db.Snapshot().cache.builds; n != 0 {
		t.Fatalf("builds = %d after a failed Prepare, want 0", n)
	}

	dir := t.TempDir()
	stored, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := stored.Prepare(ctx, "hybrid", "nope"); !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownEngineError", err)
	}
	if _, err := os.Stat(store.PathIn(dir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed Prepare wrote the index store (stat err = %v)", err)
	}
}
