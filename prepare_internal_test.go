package trussdiv

import (
	"context"
	"reflect"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
)

// TestPrepareMultiUsesSharedPass pins the multi-structure Prepare
// contract: when several ego-derived structures are missing at once,
// Prepare builds them through one BuildAll sweep — the dedicated TSD/GCT
// builders are never entered and no ranking table takes a pass of its
// own — and the prepared engines
// answer byte-identically to a DB prepared one structure at a time.
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
	cache.buildTSD = func(*Graph) *core.TSDIndex {
		t.Error("multi-name Prepare entered the dedicated TSD builder")
		return core.BuildTSDIndex(g)
	}
	cache.buildGCT = func(*Graph) *core.GCTIndex {
		t.Error("multi-name Prepare entered the dedicated GCT builder")
		return core.BuildGCTIndex(g)
	}
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
	// One shared pass built all five ego-derived structures (the pfree
	// rankings then derive in O(table), uncounted like any derivation).
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

// TestPrepareSingleKeepsDedicatedBuilder pins the complement: a Prepare
// that needs only one index never pays the multi-build driver — the
// dedicated TSD/GCT builder (and its damage-accounting semantics) still
// owns the singleton case.
func TestPrepareSingleKeepsDedicatedBuilder(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	cache := db.Snapshot().cache
	cache.buildAllIdx = func(*Graph, core.BuildTargets) *core.BuildProducts {
		t.Error("single-name Prepare entered the shared multi-build driver")
		return &core.BuildProducts{}
	}
	if err := db.Prepare(ctx, "tsd"); err != nil {
		t.Fatal(err)
	}
	if cache.builds != 1 {
		t.Fatalf("builds = %d after Prepare(tsd), want 1", cache.builds)
	}
	// A second multi-name Prepare with everything but one structure in
	// memory is still a singleton build.
	if err := db.Prepare(ctx, "tsd", "gct"); err != nil {
		t.Fatal(err)
	}
	if cache.builds != 2 {
		t.Fatalf("builds = %d after Prepare(tsd, gct), want 2", cache.builds)
	}
}
