package trussdiv

import (
	"context"
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

// TestApplyStreamRepairMatchesColdRebuild drives a randomized update
// stream through a fully prepared DB and, after every batch, pins the
// incremental repair byte-equal to a cold rebuild: the repaired tau and
// support arrays match a fresh decomposition of the edited graph, and
// every (engine, measure) cell of the routing matrix answers exactly
// like a cold DB opened on that graph. The DB never falls back to a full
// rebuild for these small batches — the whole point of the repair path.
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
		if ast == nil || !ast.TrussRepaired {
			t.Fatalf("step %d (+%d/-%d): repair fell back to a rebuild: %+v",
				step, b.ins, b.del, ast)
		}

		// The repaired decomposition is byte-equal to a cold one.
		cache := db.Snapshot().cache
		cache.mu.Lock()
		tau := append([]int32(nil), cache.tau...)
		sup := append([]int32(nil), cache.sup...)
		cache.mu.Unlock()
		if want := truss.Decompose(db.Graph()); !reflect.DeepEqual(tau, want) {
			t.Fatalf("step %d: repaired tau diverges from cold decomposition", step)
		}
		if want := db.Graph().Supports(); !reflect.DeepEqual(sup, want) {
			t.Fatalf("step %d: repaired supports diverge from a fresh count", step)
		}

		// Every engine × measure cell answers like a cold DB on this graph.
		cold, err := Open(db.Graph())
		if err != nil {
			t.Fatal(err)
		}
		for _, mi := range db.Measures() {
			for _, name := range mi.Engines {
				k := int32(3)
				if name == "pfree" {
					k = 0 // the parameter-free engine forbids a threshold
				}
				q := NewQuery(k, 12, ViaEngine(name), WithMeasure(mi.Measure), WithContexts())
				got, _, err := db.TopR(ctx, q)
				if err != nil {
					t.Fatalf("step %d %s/%s: %v", step, name, mi.Measure, err)
				}
				want, _, err := cold.TopR(ctx, q)
				if err != nil {
					t.Fatalf("step %d %s/%s (cold): %v", step, name, mi.Measure, err)
				}
				if !reflect.DeepEqual(got.TopR, want.TopR) {
					t.Fatalf("step %d %s/%s: repaired answer diverges from cold rebuild\n got %v\nwant %v",
						step, name, mi.Measure, got.TopR, want.TopR)
				}
				if !reflect.DeepEqual(got.Contexts, want.Contexts) {
					t.Fatalf("step %d %s/%s: contexts diverge from cold rebuild", step, name, mi.Measure)
				}
			}
		}
	}
}
