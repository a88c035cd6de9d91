package ego

import (
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

func randomGraph(tb testing.TB, n, extra int, seed int64) *graph.Graph {
	rng := testutil.Rand(tb, seed)
	b := graph.NewBuilder(n)
	for i := 0; i < extra; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// egoViaInduced is the reference: Def. 1 literally, via InducedSubgraph.
func egoViaInduced(g *graph.Graph, v int32) (*graph.Graph, []int32) {
	return g.InducedSubgraph(g.Neighbors(v))
}

func sameGraph(t *testing.T, got, want *graph.Graph, label string) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: N,M = %d,%d want %d,%d", label, got.N(), got.M(), want.N(), want.M())
	}
	for id := int32(0); int(id) < want.M(); id++ {
		e := want.Edge(id)
		if !got.HasEdge(e.U, e.V) {
			t.Fatalf("%s: missing edge (%d,%d)", label, e.U, e.V)
		}
	}
}

func TestExtractOneMatchesInduced(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 30, 140, seed)
		for v := int32(0); int(v) < g.N(); v++ {
			net := ExtractOne(g, v)
			want, l2g := egoViaInduced(g, v)
			if len(net.Verts) != len(l2g) {
				t.Fatalf("seed %d v %d: vertex count mismatch", seed, v)
			}
			sameGraph(t, net.G, want, "ExtractOne")
		}
	}
}

func TestExtractAllMatchesExtractOne(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 35, 180, seed+50)
		all := ExtractAll(g)
		for v := int32(0); int(v) < g.N(); v++ {
			one := ExtractOne(g, v)
			batch := all.Network(v)
			if all.EdgeCount(v) != one.G.M() {
				t.Fatalf("seed %d v %d: EdgeCount %d != m_v %d",
					seed, v, all.EdgeCount(v), one.G.M())
			}
			sameGraph(t, batch.G, one.G, "ExtractAll")
		}
	}
}

func TestFig1EgoOfV(t *testing.T) {
	g := gen.Fig1Graph()
	net := ExtractOne(g, gen.Fig1V)
	if len(net.Verts) != 14 {
		t.Fatalf("|N(v)| = %d, want 14", len(net.Verts))
	}
	// 6 + 6 clique edges + 2 bridges + 12 octahedron edges.
	if net.G.M() != 26 {
		t.Fatalf("ego edges = %d, want 26", net.G.M())
	}
	// s1, s2 are not neighbors of v.
	if net.Local(gen.Fig1S1) != -1 || net.Local(gen.Fig1S2) != -1 {
		t.Fatal("outsiders leaked into the ego-network")
	}
	// Local/Global round-trip.
	for l := int32(0); int(l) < len(net.Verts); l++ {
		if net.Local(net.Global(l)) != l {
			t.Fatalf("Local(Global(%d)) != %d", l, l)
		}
	}
}

func TestFig1EgoOfX1(t *testing.T) {
	g := gen.Fig1Graph()
	net := ExtractOne(g, gen.Fig1X1)
	// N(x1) = {v, x2, x3, x4, s1}.
	if len(net.Verts) != 5 {
		t.Fatalf("|N(x1)| = %d, want 5", len(net.Verts))
	}
	// Edges: v-x2, v-x3, v-x4, x2-x3, x2-x4, x3-x4, s1-x3.
	if net.G.M() != 7 {
		t.Fatalf("ego edges = %d, want 7", net.G.M())
	}
}

func TestEgoOfIsolatedAndLeaf(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // 2, 3 isolated... 3 isolated
	b.AddEdge(1, 2)
	g := b.Build()
	net := ExtractOne(g, 3)
	if len(net.Verts) != 0 || net.G.M() != 0 {
		t.Fatal("isolated vertex should have empty ego-network")
	}
	net = ExtractOne(g, 0)
	if len(net.Verts) != 1 || net.G.M() != 0 {
		t.Fatal("leaf ego-network should be a single isolated vertex")
	}
}

// TestExtractOneIntoMatchesExtractOne pins the scratch contract: one
// Scratch reused across every vertex (with stale state from prior,
// larger ego-networks) extracts networks identical to the fresh
// allocate-path extraction.
func TestExtractOneIntoMatchesExtractOne(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 30, 140, seed+100)
		var s Scratch
		// Two sweeps: descending then ascending, so the reused scratch
		// shrinks and grows across calls.
		order := make([]int32, 0, 2*g.N())
		for v := int32(g.N()) - 1; v >= 0; v-- {
			order = append(order, v)
		}
		for v := int32(0); int(v) < g.N(); v++ {
			order = append(order, v)
		}
		for _, v := range order {
			got := ExtractOneInto(&s, g, v)
			want := ExtractOne(g, v)
			if got.Center != want.Center || len(got.Verts) != len(want.Verts) {
				t.Fatalf("seed %d v %d: header mismatch", seed, v)
			}
			for i := range want.Verts {
				if got.Verts[i] != want.Verts[i] {
					t.Fatalf("seed %d v %d: Verts[%d] = %d, want %d",
						seed, v, i, got.Verts[i], want.Verts[i])
				}
			}
			sameGraph(t, got.G, want.G, "ExtractOneInto")
			if got.G.Fingerprint() != want.G.Fingerprint() {
				t.Fatalf("seed %d v %d: fingerprint of reused-scratch graph diverges", seed, v)
			}
		}
	}
}

// TestNetworkIntoMatchesNetwork pins the batch-extraction scratch path
// the same way.
func TestNetworkIntoMatchesNetwork(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(t, 35, 180, seed+200)
		all := ExtractAll(g)
		var s Scratch
		for v := int32(0); int(v) < g.N(); v++ {
			got := all.NetworkInto(&s, v)
			want := all.Network(v)
			if len(got.Verts) != len(want.Verts) {
				t.Fatalf("seed %d v %d: vertex count mismatch", seed, v)
			}
			sameGraph(t, got.G, want.G, "NetworkInto")
		}
	}
}

// TestExtractOneIntoAllocFree pins the tentpole: steady-state extraction
// through a reused Scratch performs zero allocations.
func TestExtractOneIntoAllocFree(t *testing.T) {
	g := randomGraph(t, 60, 600, 11)
	var s Scratch
	// Warm the scratch to the largest ego-network first.
	for v := int32(0); int(v) < g.N(); v++ {
		ExtractOneInto(&s, g, v)
	}
	v := int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		ExtractOneInto(&s, g, v)
		v = (v + 1) % int32(g.N())
	})
	if allocs != 0 {
		t.Fatalf("ExtractOneInto allocates %.1f objects per call in steady state, want 0", allocs)
	}
}
