package truss

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// applyEdits rebuilds g with the canonical (U < V) batches applied — the
// same deterministic edge-ID assignment core.ApplyEdits produces (that
// package cannot be imported here without a cycle).
func applyEdits(g *graph.Graph, ins, del []graph.Edge) *graph.Graph {
	drop := make(map[graph.Edge]bool, len(del))
	for _, e := range del {
		drop[e] = true
	}
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if !drop[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	for _, e := range ins {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// checkRepair runs Repair over (g, ins, del) and asserts exactness against
// a cold decomposition of the edited graph. Returns the repair result for
// callers asserting on the locality stats.
func checkRepair(t *testing.T, g *graph.Graph, ins, del []graph.Edge, budget int) *RepairResult {
	t.Helper()
	return checkRepairFrom(t, g, Decompose(g), g.Supports(), ins, del, budget)
}

// checkRepairFrom is checkRepair from a given decomposition and supports
// of g — a previous repair's output, in the stream tests.
func checkRepairFrom(t *testing.T, g *graph.Graph, oldTau, oldSup []int32, ins, del []graph.Edge, budget int) *RepairResult {
	t.Helper()
	newG := applyEdits(g, ins, del)
	rr, ok := Repair(g, newG, oldTau, oldSup, ins, del, budget)
	if !ok {
		t.Fatalf("Repair declined (ins=%d del=%d budget=%d)", len(ins), len(del), budget)
	}
	wantTau := Decompose(newG)
	wantSup := newG.Supports()
	for id := range wantTau {
		if rr.Tau[id] != wantTau[id] {
			e := newG.Edge(int32(id))
			t.Fatalf("edge (%d,%d): repaired tau = %d, cold = %d (ins=%v del=%v)",
				e.U, e.V, rr.Tau[id], wantTau[id], ins, del)
		}
		if rr.Sup[id] != wantSup[id] {
			e := newG.Edge(int32(id))
			t.Fatalf("edge (%d,%d): repaired sup = %d, cold = %d", e.U, e.V, rr.Sup[id], wantSup[id])
		}
	}
	return rr
}

// The adversarial case for any purely ascending repair: inserting the
// missing edge of K5−e lifts the trussness of every edge — including the
// three edges not touching the insertion, whose supports are unchanged and
// which certify each other's new level only mutually. The region traversal
// must pull them in and the seeded descent must settle them at 5.
func TestRepairK5MissingEdge(t *testing.T) {
	b := graph.NewBuilder(5)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 2 && v == 3 {
				continue
			}
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	rr := checkRepair(t, g, []graph.Edge{{U: 2, V: 3}}, nil, 0)
	newG := applyEdits(g, []graph.Edge{{U: 2, V: 3}}, nil)
	for id, tau := range rr.Tau {
		if tau != 5 {
			e := newG.Edge(int32(id))
			t.Fatalf("K5 edge (%d,%d): tau = %d, want 5", e.U, e.V, tau)
		}
	}
}

// Deleting that same edge again must walk the region back down to 4.
func TestRepairK5EdgeDeletion(t *testing.T) {
	g := gen.Clique(5)
	del := []graph.Edge{{U: 2, V: 3}}
	rr := checkRepair(t, g, nil, del, 10*g.M())
	for id, tau := range rr.Tau {
		if tau != 4 {
			t.Fatalf("edge %d: tau = %d, want 4 after deletion", id, tau)
		}
	}
}

// Insertions that share triangles with each other: re-inserting a whole
// triangle of K5 in one batch restores trussness 5 everywhere, and the
// triangle made only of this batch's insertions must count in the stage
// that closes it.
func TestRepairK5MissingTriangle(t *testing.T) {
	tri := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	g := applyEdits(gen.Clique(5), nil, tri)
	rr := checkRepair(t, g, tri, nil, 0)
	for id, tau := range rr.Tau {
		if tau != 5 {
			t.Fatalf("edge %d: tau = %d, want 5 after re-inserting the triangle", id, tau)
		}
	}
	// The same edges re-inserted in every order.
	for _, order := range [][]int{{1, 0, 2}, {2, 1, 0}, {1, 2, 0}} {
		ins := []graph.Edge{tri[order[0]], tri[order[1]], tri[order[2]]}
		checkRepair(t, g, ins, nil, 0)
	}
}

// An insertion and a deletion on one triangle in the same batch: the
// triangle the insertion would close loses an edge first, so the deletion
// stage and the insertion stage see different triangle sets.
func TestRepairInsertDeleteSameTriangle(t *testing.T) {
	k5e := applyEdits(gen.Clique(5), nil, []graph.Edge{{U: 0, V: 1}})
	k7e := applyEdits(gen.Clique(7), nil, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		ins, del []graph.Edge
	}{
		{"K5-e one side", k5e, []graph.Edge{{U: 0, V: 1}}, []graph.Edge{{U: 1, V: 2}}},
		{"K5-e both sides", k5e, []graph.Edge{{U: 0, V: 1}}, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}}},
		{"K7-2e crossed", k7e, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, []graph.Edge{{U: 1, V: 2}, {U: 0, V: 3}}},
		{"wheel rim", gen.Wheel(8), []graph.Edge{{U: 1, V: 3}}, []graph.Edge{{U: 0, V: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRepair(t, tc.g, tc.ins, tc.del, 0) })
	}
}

// Randomized batches whose insertions close triangles among themselves:
// every missing edge inside a small vertex set goes in at once, beside
// deletions drawn from the same neighborhood.
func TestRepairInteractingInsertions(t *testing.T) {
	rng := testutil.Rand(t, 43)
	for trial := 0; trial < 40; trial++ {
		n := 16 + rng.Intn(16)
		g := randomGraph(t, n, 3*n+rng.Intn(3*n), int64(700+trial))
		set := rng.Perm(n)[:4+rng.Intn(4)]
		var ins, del []graph.Edge
		for i, a := range set {
			for _, b := range set[i+1:] {
				u, v := int32(min(a, b)), int32(max(a, b))
				switch {
				case !g.HasEdge(u, v):
					ins = append(ins, graph.Edge{U: u, V: v})
				case rng.Intn(4) == 0:
					del = append(del, graph.Edge{U: u, V: v})
				}
			}
		}
		if len(ins) == 0 && len(del) == 0 {
			continue
		}
		checkRepair(t, g, ins, del, 10*g.M())
	}
}

// A stream of write batches shaped like the serving write load —
// triadic-closure inserts, which share triangles with each other and
// with the graph's communities, beside uniform deletes — on a community
// overlay, each repaired from the previous repair's output.
func TestRepairTriadicStreamOnOverlay(t *testing.T) {
	rng := testutil.Rand(t, 91)
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 400, Attach: 3, Cliques: 80, MinSize: 4, MaxSize: 8, Window: 40, Seed: 92,
	})
	tau, sup := DecomposeFull(g, 1)
	for step := 0; step < 20; step++ {
		ins, del := triadicBatch(t, rng, g, 1+rng.Intn(8), rng.Intn(9))
		rr := checkRepairFrom(t, g, tau, sup, ins, del, 10*g.M())
		g, tau, sup = applyEdits(g, ins, del), rr.Tau, rr.Sup
	}
}

func TestRepairRandomizedBatches(t *testing.T) {
	rng := testutil.Rand(t, 31)
	for trial := 0; trial < 60; trial++ {
		n := 14 + rng.Intn(18)
		g := randomGraph(t, n, 3*n+rng.Intn(4*n), int64(500+trial))
		ins, del := randomBatch(rng, g, 1+rng.Intn(6), rng.Intn(5))
		if len(ins) == 0 && len(del) == 0 {
			continue
		}
		checkRepair(t, g, ins, del, 10*g.M())
	}
}

func TestRepairDeleteOnlyBatches(t *testing.T) {
	rng := testutil.Rand(t, 77)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, 20, 90, int64(900+trial))
		_, del := randomBatch(rng, g, 0, 1+rng.Intn(6))
		if len(del) == 0 {
			continue
		}
		checkRepair(t, g, nil, del, 10*g.M())
	}
}

// A stream of small batches, each repaired from the previous repair's own
// output — the exact usage pattern of DB.Apply, where supports and taus
// must stay valid inputs across generations.
func TestRepairStream(t *testing.T) {
	rng := testutil.Rand(t, 55)
	g := randomGraph(t, 40, 220, 123)
	tau, sup := Decompose(g), g.Supports()
	for step := 0; step < 25; step++ {
		ins, del := randomBatch(rng, g, 1+rng.Intn(3), rng.Intn(3))
		if len(ins) == 0 && len(del) == 0 {
			continue
		}
		newG := applyEdits(g, ins, del)
		rr, ok := Repair(g, newG, tau, sup, ins, del, 10*g.M())
		if !ok {
			t.Fatalf("step %d: Repair declined", step)
		}
		want := Decompose(newG)
		for id := range want {
			if rr.Tau[id] != want[id] {
				t.Fatalf("step %d edge %d: tau = %d, cold = %d", step, id, rr.Tau[id], want[id])
			}
		}
		g, tau, sup = newG, rr.Tau, rr.Sup
	}
}

// The cutoff contract: an impossible budget makes Repair decline instead
// of degrading, and a normal budget on a clique insertion (whose region is
// the whole clique) still succeeds.
func TestRepairBudgetCutoff(t *testing.T) {
	g := gen.Clique(10)
	del := []graph.Edge{{U: 0, V: 1}}
	newG := applyEdits(g, nil, del)
	tau, sup := Decompose(g), g.Supports()
	if _, ok := Repair(g, newG, tau, sup, nil, del, 1); ok {
		t.Fatal("Repair accepted a budget of 1 edge on a clique deletion")
	}
	if _, ok := Repair(g, newG, tau, sup, nil, del, g.M()); !ok {
		t.Fatal("Repair declined a budget covering the whole graph")
	}
}

// Mismatched inputs (a new graph that is not oldG+ins−del) must be
// rejected, not silently mis-repaired.
func TestRepairRejectsMismatchedGraphs(t *testing.T) {
	g := gen.Clique(6)
	other := gen.Clique(6)
	otherPlus := applyEdits(other, nil, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	tau, sup := Decompose(g), g.Supports()
	if _, ok := Repair(g, otherPlus, tau, sup, nil, []graph.Edge{{U: 0, V: 1}}, 0); ok {
		t.Fatal("Repair accepted a new graph inconsistent with the batch")
	}
	if _, ok := Repair(g, otherPlus, tau[:3], sup, nil, []graph.Edge{{U: 0, V: 1}}, 0); ok {
		t.Fatal("Repair accepted a truncated tau array")
	}
}

// triadicBatch samples an edit batch shaped like the serving write
// stream: nIns triadic-closure inserts (a vertex to a neighbor of one of
// its neighbors) and nDel uniform deletes of present edges, canonical and
// duplicate-free.
func triadicBatch(tb testing.TB, rng *rand.Rand, g *graph.Graph, nIns, nDel int) (ins, del []graph.Edge) {
	tb.Helper()
	n := int32(g.N())
	seen := make(map[graph.Edge]bool)
	for tries := 0; len(ins) < nIns; tries++ {
		if tries > 1000*nIns {
			tb.Fatalf("no triadic closure left after %d tries", tries)
		}
		x := rng.Int31n(n)
		nx := g.Neighbors(x)
		if len(nx) == 0 {
			continue
		}
		nw := g.Neighbors(nx[rng.Intn(len(nx))])
		y := nw[rng.Intn(len(nw))]
		if x > y {
			x, y = y, x
		}
		e := graph.Edge{U: x, V: y}
		if x == y || seen[e] || g.HasEdge(x, y) {
			continue
		}
		seen[e] = true
		ins = append(ins, e)
	}
	for len(del) < nDel && len(del) < g.M() {
		e := g.Edge(rng.Int31n(int32(g.M())))
		if !seen[e] {
			seen[e] = true
			del = append(del, e)
		}
	}
	return ins, del
}

// gowallaLike is the overlay behind the gowalla-sim benchmark dataset
// (25k vertices, ~194k edges).
func gowallaLike() *graph.Graph {
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: 25000, Attach: 4, Cliques: 3000, MinSize: 4, MaxSize: 14, Window: 250, AnchorBias: 0.5, Diffuse: 500, Seed: 104,
	})
}

// BenchmarkTrussRepair times one Repair of a write batch of 8
// triadic-closure inserts and 8 uniform deletes on a gowalla-sized graph.
func BenchmarkTrussRepair(b *testing.B) {
	g := gowallaLike()
	ins, del := triadicBatch(b, rand.New(rand.NewSource(1)), g, 8, 8)
	newG := applyEdits(g, ins, del)
	tau, sup := DecomposeFull(g, 0)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := Repair(g, newG, tau, sup, ins, del, 0); !ok {
			b.Fatal("Repair declined")
		}
	}
}

// The stages of a batch share one set of scratch arrays sized by the
// graph, so a Repair of eight insertions allocates about what one of a
// single insertion does — not one more graph-sized working set, or one
// more intermediate graph, per insertion.
func TestRepairAllocsIndependentOfBatch(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 8000, Attach: 4, Cliques: 1200, MinSize: 4, MaxSize: 12, Window: 150, AnchorBias: 0.5, Diffuse: 160, Seed: 102,
	})
	if g.M() < 50000 {
		t.Fatalf("graph has %d edges, want >= 50000", g.M())
	}
	tau, sup := DecomposeFull(g, 1)
	ins, _ := triadicBatch(t, testutil.Rand(t, 5), g, 8, 0)
	bytesOf := func(ins []graph.Edge) uint64 {
		newG := applyEdits(g, ins, nil)
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, ok := Repair(g, newG, tau, sup, ins, nil, 0)
			runtime.ReadMemStats(&after)
			if !ok {
				t.Fatalf("Repair of %d insertions declined", len(ins))
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	one, eight := bytesOf(ins[:1]), bytesOf(ins)
	t.Logf("Repair allocates %d B for 1 insertion, %d B for 8 (m = %d)", one, eight, g.M())
	if float64(eight) > 1.5*float64(one) {
		t.Fatalf("8-insertion Repair allocates %d B, more than 1.5x the %d B of a 1-insertion one", eight, one)
	}
}

// randomBatch samples up to nIns absent edges and nDel present edges from
// g, canonical and duplicate-free.
func randomBatch(rng *rand.Rand, g *graph.Graph, nIns, nDel int) (ins, del []graph.Edge) {
	n := int32(g.N())
	seen := make(map[graph.Edge]bool)
	for len(ins) < nIns {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		if seen[e] || g.HasEdge(u, v) {
			continue
		}
		seen[e] = true
		ins = append(ins, e)
	}
	edges := g.Edges()
	for attempts := 0; len(del) < nDel && attempts < 50*nDel+50; attempts++ {
		if len(edges) == 0 {
			break
		}
		e := edges[rng.Intn(len(edges))]
		if seen[e] {
			continue
		}
		seen[e] = true
		del = append(del, e)
	}
	return ins, del
}
