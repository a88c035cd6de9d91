package trussdiv

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/truss"
)

// streamUpdates builds one random batch: nIns absent edges and nDel
// present ones, disjoint. (bench.RandomUpdates does the same but lives
// in a package that imports trussdiv, off limits to an internal test.)
func streamUpdates(g *Graph, rng *rand.Rand, nIns, nDel int) Updates {
	n := int32(g.N())
	var u Updates
	chosen := map[Edge]bool{}
	for len(u.Insert) < nIns {
		a, b := rng.Int31n(n), rng.Int31n(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := Edge{U: a, V: b}
		if g.HasEdge(a, b) || chosen[e] {
			continue
		}
		chosen[e] = true
		u.Insert = append(u.Insert, e)
	}
	edges := g.Edges()
	for len(u.Delete) < nDel && len(u.Delete) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if chosen[e] {
			continue
		}
		chosen[e] = true
		u.Delete = append(u.Delete, e)
	}
	return u
}

// checkTauColdThenRebuiltOnce pins the truss half of the Apply contract
// on db's current snapshot: Apply left the global truss decomposition and
// its supports cold; one bound query readies them with exactly one build;
// and both are then byte-equal to a fresh decomposition and support count
// of the edited graph.
func checkTauColdThenRebuiltOnce(t *testing.T, db *DB, label string) {
	t.Helper()
	cache := db.Snapshot().cache
	cache.mu.Lock()
	carried := cache.tau != nil || cache.sup != nil
	builds := cache.builds
	cache.mu.Unlock()
	if carried {
		t.Fatalf("%s: Apply carried the truss decomposition into the new snapshot", label)
	}
	if _, _, err := db.TopR(context.Background(), NewQuery(3, 5, ViaEngine("bound"))); err != nil {
		t.Fatalf("%s: bound: %v", label, err)
	}
	cache.mu.Lock()
	tau, sup := cache.tau, cache.sup
	built := cache.builds - builds
	cache.mu.Unlock()
	if built != 1 {
		t.Fatalf("%s: the bound query made %d builds, want 1 (the truss decomposition)", label, built)
	}
	if want := truss.Decompose(db.Graph()); !reflect.DeepEqual(tau, want) {
		t.Fatalf("%s: rebuilt tau diverges from a cold decomposition", label)
	}
	if want := db.Graph().Supports(); !reflect.DeepEqual(sup, want) {
		t.Fatalf("%s: rebuilt supports diverge from a fresh count", label)
	}
}

// checkCellsMatchCold asserts that every (engine, measure) cell of db's
// routing matrix answers a top-r query at threshold k (k-less for pfree),
// contexts included, exactly like a cold DB opened on db's graph.
func checkCellsMatchCold(t *testing.T, db *DB, label string, k int32, r int) {
	t.Helper()
	ctx := context.Background()
	cold, err := Open(db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	for _, mi := range db.Measures() {
		for _, name := range mi.Engines {
			k := k
			if name == "pfree" {
				k = 0 // the parameter-free engine forbids a threshold
			}
			q := NewQuery(k, r, ViaEngine(name), WithMeasure(mi.Measure), WithContexts())
			got, _, err := db.TopR(ctx, q)
			if err != nil {
				t.Fatalf("%s %s/%s: %v", label, name, mi.Measure, err)
			}
			want, _, err := cold.TopR(ctx, q)
			if err != nil {
				t.Fatalf("%s %s/%s (cold): %v", label, name, mi.Measure, err)
			}
			if !reflect.DeepEqual(got.TopR, want.TopR) {
				t.Fatalf("%s %s/%s: applied answer diverges from a cold DB\n got %v\nwant %v",
					label, name, mi.Measure, got.TopR, want.TopR)
			}
			if !reflect.DeepEqual(got.Contexts, want.Contexts) {
				t.Fatalf("%s %s/%s: contexts diverge from a cold DB", label, name, mi.Measure)
			}
		}
	}
}

// TestApplyStreamRepairMatchesColdRebuild drives a randomized update
// stream through a fully prepared DB and, after every batch, pins the
// result byte-equal to a cold rebuild: the patch pass re-derived the
// ego-derived structures without a build, the truss decomposition was
// left cold and the first bound query rebuilt it once, byte-equal to a
// fresh decomposition (supports included), and every (engine, measure)
// cell of the routing matrix answers exactly like a cold DB opened on
// the edited graph.
func TestApplyStreamRepairMatchesColdRebuild(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 240, Attach: 3, Cliques: 48, MinSize: 4, MaxSize: 7, Seed: 77,
	})
	ctx := context.Background()
	db, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, "comp", "kcore"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))

	batches := []struct{ ins, del int }{
		{1, 0}, {0, 1}, {3, 2}, {0, 4}, {5, 0}, {4, 4},
	}
	for step, b := range batches {
		u := streamUpdates(db.Graph(), rng, b.ins, b.del)
		if _, err := db.Apply(ctx, u); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ast := db.Snapshot().ApplyStats()
		if ast == nil || ast.RankingsPatched != len(AllMeasures()) || ast.TrussRepaired || ast.TrussRegion != 0 {
			t.Fatalf("step %d (+%d/-%d): ApplyStats = %+v, want every table patched and no truss repair",
				step, b.ins, b.del, ast)
		}
		if n := db.Snapshot().cache.builds; n != 0 {
			t.Fatalf("step %d: Apply left %d builds on the new snapshot, want 0", step, n)
		}
		label := fmt.Sprintf("step %d", step)
		checkTauColdThenRebuiltOnce(t, db, label)
		checkCellsMatchCold(t, db, label, 3, 12)
	}
}
