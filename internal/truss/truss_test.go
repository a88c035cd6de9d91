package truss

import (
	"slices"
	"testing"
	"testing/quick"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// naiveDecompose is an independent reference implementation: repeatedly
// recompute supports from scratch and strip minimum-support edges,
// following Definition 4 literally. O(m^2) but trustworthy.
func naiveDecompose(g *graph.Graph) []int32 {
	tau := make([]int32, g.M())
	alive := make([]bool, g.M())
	for i := range alive {
		alive[i] = true
	}
	remaining := g.M()
	k := int32(2)
	for remaining > 0 {
		for {
			// Recompute supports of the surviving subgraph.
			sub := g.FilterEdges(func(id int32) bool { return alive[id] })
			// Map sub's edge IDs back to g's IDs via endpoints.
			peeled := false
			subSup := sub.Supports()
			for id := 0; id < sub.M(); id++ {
				if subSup[id] <= k-2 {
					e := sub.Edge(int32(id))
					gid := g.EdgeID(e.U, e.V)
					if alive[gid] {
						alive[gid] = false
						tau[gid] = k
						remaining--
						peeled = true
					}
				}
			}
			if !peeled {
				break
			}
		}
		k++
	}
	return tau
}

func randomGraph(tb testing.TB, n, extra int, seed int64) *graph.Graph {
	rng := testutil.Rand(tb, seed)
	b := graph.NewBuilder(n)
	for i := 0; i < extra; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestDecomposeClique(t *testing.T) {
	for k := 3; k <= 8; k++ {
		g := gen.Clique(k)
		tau := Decompose(g)
		for id, tv := range tau {
			if tv != int32(k) {
				t.Fatalf("K%d edge %d trussness = %d, want %d", k, id, tv, k)
			}
		}
	}
}

func TestDecomposeTriangleFree(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Cycle(8), gen.Path(6), gen.Star(9)} {
		for id, tv := range Decompose(g) {
			if tv != 2 {
				t.Fatalf("triangle-free edge %d trussness = %d, want 2", id, tv)
			}
		}
	}
}

func TestDecomposeOctahedron(t *testing.T) {
	// Octahedron = K_{2,2,2}: every edge in exactly 2 triangles => 4-truss.
	b := graph.NewBuilder(6)
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if v-u == 3 {
				continue
			}
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	for id, tv := range Decompose(g) {
		if tv != 4 {
			t.Fatalf("octahedron edge %d trussness = %d, want 4", id, tv)
		}
	}
}

func TestDecomposeMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(t, 14+int(seed), 40+3*int(seed), seed)
		want := naiveDecompose(g)
		got := Decompose(g)
		for id := range want {
			if got[id] != want[id] {
				e := g.Edge(int32(id))
				t.Fatalf("seed %d: edge (%d,%d) trussness = %d, naive = %d",
					seed, e.U, e.V, got[id], want[id])
			}
		}
	}
}

func TestBitmapDecomposeMatchesPeeling(t *testing.T) {
	var s Scratch
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(t, 20+int(seed)*2, 60+5*int(seed), seed+100)
		want := Decompose(g)
		got := s.DecomposeBitmapInto(g) // reuse the same scratch across graphs
		for id := range want {
			if got[id] != want[id] {
				e := g.Edge(int32(id))
				t.Fatalf("seed %d: edge (%d,%d) bitmap = %d, peeling = %d",
					seed, e.U, e.V, got[id], want[id])
			}
		}
	}
}

// Property: in the k-truss (edges with tau >= k), every edge has at least
// k-2 triangles whose other two edges are also in the k-truss. This is the
// defining invariant of the decomposition.
func TestKTrussSupportInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 24, 90, seed)
		tau := Decompose(g)
		maxT := MaxTrussness(tau)
		for k := int32(3); k <= maxT; k++ {
			sub := KTruss(g, tau, k)
			for id, s := range sub.Supports() {
				_ = id
				if s < k-2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: k-trusses are nested — the (k+1)-truss is a subgraph of the
// k-truss, i.e. trussness thresholds shrink edge sets monotonically.
func TestKTrussNesting(t *testing.T) {
	g := randomGraph(t, 30, 140, 7)
	tau := Decompose(g)
	prev := g.M() + 1
	for k := int32(2); k <= MaxTrussness(tau)+1; k++ {
		count := 0
		for _, tv := range tau {
			if tv >= k {
				count++
			}
		}
		if count > prev {
			t.Fatalf("k=%d edge count %d grew beyond %d", k, count, prev)
		}
		prev = count
	}
}

func TestFig1Supports(t *testing.T) {
	g := gen.Fig1Graph()
	// H1 is the induced subgraph on x1..x4, y1..y4 (paper Fig. 2a).
	h1, l2g := g.InducedSubgraph([]int32{
		gen.Fig1X1, gen.Fig1X2, gen.Fig1X3, gen.Fig1X4,
		gen.Fig1Y1, gen.Fig1Y2, gen.Fig1Y3, gen.Fig1Y4,
	})
	if h1.M() != 14 {
		t.Fatalf("H1 edges = %d, want 14", h1.M())
	}
	local := func(global int32) int32 {
		for l, gv := range l2g {
			if gv == global {
				return int32(l)
			}
		}
		t.Fatalf("vertex %d not in H1", global)
		return -1
	}
	sup := h1.Supports()
	check := func(u, v int32, want int32, label string) {
		id := h1.EdgeID(local(u), local(v))
		if id < 0 {
			t.Fatalf("edge %s missing in H1", label)
		}
		if sup[id] != want {
			t.Errorf("sup(%s) = %d, want %d", label, sup[id], want)
		}
	}
	// Paper: sup(x2,y1) = 1 (only triangle x2-x4-y1), sup(x4,y1) = 1,
	// sup(x2,x4) = 3, every other edge 2.
	check(gen.Fig1X2, gen.Fig1Y1, 1, "(x2,y1)")
	check(gen.Fig1X4, gen.Fig1Y1, 1, "(x4,y1)")
	check(gen.Fig1X2, gen.Fig1X4, 3, "(x2,x4)")
	check(gen.Fig1X1, gen.Fig1X2, 2, "(x1,x2)")
	check(gen.Fig1Y1, gen.Fig1Y2, 2, "(y1,y2)")
	check(gen.Fig1Y3, gen.Fig1Y4, 2, "(y3,y4)")

	// Paper Fig. 2b: trussness 3 on the bridges, 4 elsewhere.
	tau := Decompose(h1)
	wantTau := func(u, v int32, want int32, label string) {
		id := h1.EdgeID(local(u), local(v))
		if tau[id] != want {
			t.Errorf("tau(%s) = %d, want %d", label, tau[id], want)
		}
	}
	wantTau(gen.Fig1X2, gen.Fig1Y1, 3, "(x2,y1)")
	wantTau(gen.Fig1X4, gen.Fig1Y1, 3, "(x4,y1)")
	wantTau(gen.Fig1X2, gen.Fig1X4, 4, "(x2,x4)")
	wantTau(gen.Fig1X1, gen.Fig1X3, 4, "(x1,x3)")
	wantTau(gen.Fig1Y1, gen.Fig1Y4, 4, "(y1,y4)")
}

func TestComponentsAndCount(t *testing.T) {
	// Two disjoint K4s plus a path: at k=4 there are 2 components.
	g := gen.DisjointUnion(gen.Clique(4), gen.Clique(4), gen.Path(5))
	tau := Decompose(g)
	comps := Components(g, tau, 4)
	if len(comps) != 2 {
		t.Fatalf("4-truss components = %d, want 2", len(comps))
	}
	for _, c := range comps {
		if len(c) != 4 {
			t.Fatalf("component size = %d, want 4", len(c))
		}
	}
	if got := CountComponents(g, tau, 4); got != 2 {
		t.Fatalf("CountComponents = %d, want 2", got)
	}
	// k=2: K4, K4 and the path are each one edge-connected component.
	if got := CountComponents(g, tau, 2); got != 3 {
		t.Fatalf("CountComponents(k=2) = %d, want 3", got)
	}
	// Above the max trussness: none.
	if got := CountComponents(g, tau, 5); got != 0 {
		t.Fatalf("CountComponents(k=5) = %d, want 0", got)
	}
}

func TestCountMatchesComponents(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 26, 100, seed)
		tau := Decompose(g)
		for k := int32(2); k <= MaxTrussness(tau); k++ {
			if CountComponents(g, tau, k) != len(Components(g, tau, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistribution(t *testing.T) {
	g := gen.DisjointUnion(gen.Clique(4), gen.Path(4))
	tau := Decompose(g)
	hist := Distribution(tau)
	if hist[2] != 3 || hist[4] != 6 {
		t.Fatalf("hist = %v, want 3 edges at tau=2 and 6 at tau=4", hist)
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != int64(g.M()) {
		t.Fatalf("histogram total %d != m %d", total, g.M())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := gen.Path(1)
	tau := Decompose(g)
	if len(tau) != 0 {
		t.Fatal("expected no edges")
	}
	if MaxTrussness(tau) != 0 {
		t.Fatal("MaxTrussness of empty should be 0")
	}
	var s Scratch
	if got := s.DecomposeBitmapInto(g); len(got) != 0 {
		t.Fatal("bitmap decompose of empty should be empty")
	}
}

// egoNets returns the ego-network of every vertex of g that has an edge
// in it, in vertex order.
func egoNets(g *graph.Graph) []*graph.Graph {
	var nets []*graph.Graph
	for v := int32(0); int(v) < g.N(); v++ {
		if h, _ := g.InducedSubgraph(g.Neighbors(v)); h.M() > 0 {
			nets = append(nets, h)
		}
	}
	return nets
}

func overlayGraph(tb testing.TB) *graph.Graph {
	rng := testutil.Rand(tb, 27)
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 12, Seed: rng.Int63(),
	})
}

// TestScratchModesMatchDecompose forces both support-counting modes of
// the one peel on one reused Scratch: every ego-network of the Fig. 1
// graph and of an overlay graph, forward and then backward so n both
// grows and shrinks, with the empty graph in between. Each network runs
// under both modes, the first one alternating, and every tau must be
// byte-equal to Decompose's.
func TestScratchModesMatchDecompose(t *testing.T) {
	nets := append(egoNets(gen.Fig1Graph()), egoNets(overlayGraph(t))...)
	for i := len(nets) - 1; i >= 0; i-- {
		nets = append(nets, nets[i])
	}
	empty := gen.Path(1)
	var s Scratch
	modes := [2]func(*graph.Graph) []int32{s.DecomposeInto, s.DecomposeBitmapInto}
	grew, shrank := false, false
	for i, h := range nets {
		if i > 0 {
			grew = grew || h.N() > nets[i-1].N()
			shrank = shrank || h.N() < nets[i-1].N()
		}
		want := Decompose(h)
		for j := range modes {
			if got := modes[(i+j)%2](h); !slices.Equal(got, want) {
				t.Fatalf("net %d (n=%d, m=%d), mode %d: tau = %v, want %v",
					i, h.N(), h.M(), (i+j)%2, got, want)
			}
		}
		if i%5 == 0 {
			if got := modes[i%2](empty); len(got) != 0 {
				t.Fatalf("net %d: empty graph, mode %d: tau = %v", i, i%2, got)
			}
		}
	}
	if !grew || !shrank {
		t.Fatalf("sequence never grew (%v) or never shrank (%v)", grew, shrank)
	}
}

// TestDecomposeBitmapIntoAllocFree pins a warm Scratch at zero
// allocations per call in both modes, alternating between them over the
// ego-networks of an overlay graph.
func TestDecomposeBitmapIntoAllocFree(t *testing.T) {
	nets := egoNets(overlayGraph(t))
	var s Scratch
	// One sweep in each mode grows every slab to its high-water mark.
	for _, h := range nets {
		s.DecomposeBitmapInto(h)
		s.DecomposeInto(h)
	}
	var i int
	if got := testing.AllocsPerRun(300, func() {
		h := nets[i%len(nets)]
		s.DecomposeBitmapInto(h)
		s.DecomposeInto(h)
		i++
	}); got != 0 {
		t.Errorf("alternating DecomposeBitmapInto/DecomposeInto allocates %.1f per pair, want 0", got)
	}
}
