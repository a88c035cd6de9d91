package ego

import (
	"fmt"
	"slices"
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
// allocate-path extraction. ExtractOne is ExtractOneInto over a fresh
// Scratch, so this compares the marker path with itself; the check
// against an independent listing is TestExtractOneIntoMatchesMerge.
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
// through a reused Scratch performs zero allocations. The marker grows
// once, to the largest N the scratch has served, so alternating between a
// larger and a smaller graph after that allocates nothing either.
func TestExtractOneIntoAllocFree(t *testing.T) {
	large := randomGraph(t, 60, 600, 11)
	small := randomGraph(t, 25, 150, 12)
	var s Scratch
	// Warm the scratch on the larger graph first: its N sizes the marker,
	// and it holds the largest ego-network of the two.
	for _, g := range []*graph.Graph{large, small} {
		for v := int32(0); int(v) < g.N(); v++ {
			ExtractOneInto(&s, g, v)
		}
	}
	for _, tc := range []struct {
		name string
		gs   []*graph.Graph
	}{
		{"one graph", []*graph.Graph{large}},
		{"alternating sizes", []*graph.Graph{large, small}},
	} {
		i, v := 0, int32(0)
		allocs := testing.AllocsPerRun(200, func() {
			g := tc.gs[i%len(tc.gs)]
			ExtractOneInto(&s, g, v%int32(g.N()))
			i++
			v++
		})
		if allocs != 0 {
			t.Fatalf("%s: ExtractOneInto allocates %.1f objects per call in steady state, want 0", tc.name, allocs)
		}
	}
}

// mergeExtract is the reference listing ExtractOneInto replaced: for each
// neighbor u of v, merge N(u) with N(v) and keep the matches above u. It
// costs Σ(d(u) + d(v)) but shares nothing with the marker path.
func mergeExtract(s *Scratch, g *graph.Graph, v int32) *Network {
	verts := g.Neighbors(v)
	s.b.Reset(len(verts))
	for lu, u := range verts {
		nu := g.Neighbors(u)
		i, j := 0, 0
		for i < len(nu) && j < len(verts) {
			switch {
			case nu[i] < verts[j]:
				i++
			case nu[i] > verts[j]:
				j++
			default:
				if verts[j] > u { // count each ego edge once
					s.b.AddEdge(int32(lu), int32(j))
				}
				i++
				j++
			}
		}
	}
	s.net.Center = v
	s.net.Verts = verts
	s.net.G = s.b.BuildInto(&s.csr)
	return &s.net
}

// sameBytes fails unless got and want have the same center, vertex map
// and CSR arrays (off, adj, eid, edges), element for element.
func sameBytes(t *testing.T, got, want *Network, label string) {
	t.Helper()
	if got.Center != want.Center || !slices.Equal(got.Verts, want.Verts) {
		t.Fatalf("%s: center/Verts = %d %v, want %d %v", label, got.Center, got.Verts, want.Center, want.Verts)
	}
	sameCSR(t, got.G, want.G, label)
}

func sameCSR(t *testing.T, got, want *graph.Graph, label string) {
	t.Helper()
	goff, gadj, geid, gedges := got.CSR()
	woff, wadj, weid, wedges := want.CSR()
	switch {
	case !slices.Equal(goff, woff):
		t.Fatalf("%s: off = %v, want %v", label, goff, woff)
	case !slices.Equal(gadj, wadj):
		t.Fatalf("%s: adj = %v, want %v", label, gadj, wadj)
	case !slices.Equal(geid, weid):
		t.Fatalf("%s: eid = %v, want %v", label, geid, weid)
	case !slices.Equal(gedges, wedges):
		t.Fatalf("%s: edges = %v, want %v", label, gedges, wedges)
	}
}

// markerClear fails unless the scratch's position marker is all zero,
// the invariant that lets one Scratch serve every later call and graph.
func markerClear(t *testing.T, s *Scratch, label string) {
	t.Helper()
	for w, p := range s.pos {
		if p != 0 {
			t.Fatalf("%s: marker left pos[%d] = %d", label, w, p)
		}
	}
}

// checkExtract extracts v through s and holds the result byte-equal to
// the merge reference and to InducedSubgraph, with the marker clear after.
func checkExtract(t *testing.T, s, ref *Scratch, g *graph.Graph, v int32, label string) {
	t.Helper()
	got := ExtractOneInto(s, g, v)
	markerClear(t, s, label)
	sameBytes(t, got, mergeExtract(ref, g, v), label)
	want, l2g := egoViaInduced(g, v)
	if !slices.Equal(got.Verts, l2g) {
		t.Fatalf("%s: Verts = %v, InducedSubgraph maps %v", label, got.Verts, l2g)
	}
	sameCSR(t, got.G, want, label+" vs InducedSubgraph")
}

// TestExtractOneIntoMatchesMerge holds the marker listing byte-equal to
// the merge it replaced, over random graphs and a community overlay, with
// one Scratch reused across graphs whose N grows and then shrinks. Every
// graph's centers run hub, 0 and n−1 first and then all vertices in both
// directions; the suite must meet centers of degree 0 and 1.
func TestExtractOneIntoMatchesMerge(t *testing.T) {
	graphs := []*graph.Graph{
		randomGraph(t, 12, 10, 300), // sparse: isolated vertices and leaves
		randomGraph(t, 30, 140, 301),
		randomGraph(t, 80, 700, 302),
		gen.CommunityOverlay(gen.OverlayConfig{
			N: 300, Attach: 3, Cliques: 40, MinSize: 4, MaxSize: 9, Seed: 303,
		}),
		randomGraph(t, 50, 300, 304),
		randomGraph(t, 20, 15, 305),
		gen.Fig1Graph(),
	}
	var s, ref Scratch
	var deg0, deg1 bool
	for gi, g := range graphs {
		n := int32(g.N())
		hub := int32(0)
		for v := int32(1); v < n; v++ {
			if g.Degree(v) > g.Degree(hub) {
				hub = v
			}
		}
		order := []int32{hub, 0, n - 1}
		for v := n - 1; v >= 0; v-- {
			order = append(order, v)
		}
		for v := int32(0); v < n; v++ {
			order = append(order, v)
		}
		for _, v := range order {
			deg0 = deg0 || g.Degree(v) == 0
			deg1 = deg1 || g.Degree(v) == 1
			label := fmt.Sprintf("graph %d v %d", gi, v)
			checkExtract(t, &s, &ref, g, v, label)
			// Each ego edge must come out once and in (lu, local) order,
			// so Builder.canonicalize skips its sort, which allocates.
			if a := testing.AllocsPerRun(1, func() { ExtractOneInto(&s, g, v) }); a != 0 {
				t.Fatalf("%s: %.0f allocations into a warm scratch: edges out of order or repeated", label, a)
			}
		}
	}
	if !deg0 || !deg1 {
		t.Fatalf("centers of degree 0 (%v) and 1 (%v) not both covered", deg0, deg1)
	}
}

// FuzzExtractOneInto decodes two small graphs with different vertex
// counts and extracts every vertex of the first and then of the second
// through one Scratch: each result must equal InducedSubgraph and the
// merge reference, and the marker must be all zero after every call.
func FuzzExtractOneInto(f *testing.F) {
	var fig1 []byte
	for _, e := range gen.Fig1Graph().Edges() {
		fig1 = append(fig1, byte(e.U), byte(e.V))
	}
	f.Add(uint8(gen.Fig1Graph().N()), uint8(5), fig1, []byte{0, 1, 1, 2, 2, 0, 3, 4})
	f.Add(uint8(0), uint8(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, n1, n2 uint8, edges1, edges2 []byte) {
		// Each graph has N ≤ 64, the second a different N than the first;
		// its edges are byte pairs taken mod N.
		na, nb := int(n1%65), int(n2%65)
		if na == nb {
			nb = (na + 1) % 65
		}
		decode := func(n int, raw []byte) *graph.Graph {
			b := graph.NewBuilder(n)
			for i := 0; n > 0 && i+1 < len(raw); i += 2 {
				b.AddEdge(int32(int(raw[i])%n), int32(int(raw[i+1])%n))
			}
			return b.Build()
		}
		var s, ref Scratch
		for gi, g := range []*graph.Graph{decode(na, edges1), decode(nb, edges2)} {
			for v := int32(0); int(v) < g.N(); v++ {
				checkExtract(t, &s, &ref, g, v, fmt.Sprintf("graph %d v %d", gi, v))
			}
		}
	})
}
