package gen

import (
	"testing"

	"trussdiv/internal/graph"
)

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(2000, 4, 1)
	if g.N() != 2000 {
		t.Fatalf("N = %d, want 2000", g.N())
	}
	// m ≈ attach * n (minus the seed clique adjustment, minus collisions).
	if g.M() < 7500 || g.M() > 8100 {
		t.Fatalf("M = %d, want ≈ 8000", g.M())
	}
	// Determinism.
	g2 := BarabasiAlbert(2000, 4, 1)
	if g2.M() != g.M() {
		t.Fatal("same seed produced different graphs")
	}
	// Heavy tail: max degree far above the mean.
	mean := 2.0 * float64(g.M()) / float64(g.N())
	if float64(g.MaxDegree()) < 5*mean {
		t.Fatalf("max degree %d not heavy-tailed (mean %.1f)", g.MaxDegree(), mean)
	}
	if exp := PowerLawDegreeExponent(g); exp < 1.2 || exp > 4.5 {
		t.Fatalf("degree exponent %.2f outside plausible power-law range", exp)
	}
}

func TestErdosRenyiGNM(t *testing.T) {
	g := ErdosRenyiGNM(100, 300, 2)
	if g.N() != 100 || g.M() != 300 {
		t.Fatalf("N=%d M=%d, want 100,300", g.N(), g.M())
	}
	// Cap at complete graph.
	g = ErdosRenyiGNM(5, 100, 2)
	if g.M() != 10 {
		t.Fatalf("capped M = %d, want 10", g.M())
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 3)
	if g.N() != 1024 {
		t.Fatalf("N = %d, want 1024", g.N())
	}
	if g.M() < 4000 || g.M() > 8192 {
		t.Fatalf("M = %d, want within (4000, 8192]", g.M())
	}
}

func TestCommunityOverlayTriangleRich(t *testing.T) {
	plain := BarabasiAlbert(3000, 3, 5)
	overlay := CommunityOverlay(OverlayConfig{
		N: 3000, Attach: 3, Cliques: 400, MinSize: 4, MaxSize: 12, Seed: 5,
	})
	if overlay.CountTriangles() <= 3*plain.CountTriangles() {
		t.Fatalf("overlay triangles %d not >> backbone %d",
			overlay.CountTriangles(), plain.CountTriangles())
	}
}

func TestFixtures(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		n, m int
	}{
		{"K5", Clique(5), 5, 10},
		{"C6", Cycle(6), 6, 6},
		{"P4", Path(4), 4, 3},
		{"Star7", Star(7), 7, 6},
		{"W5", Wheel(6), 6, 10},
	}
	for _, tc := range tests {
		if tc.g.N() != tc.n || tc.g.M() != tc.m {
			t.Errorf("%s: N=%d M=%d, want %d,%d", tc.name, tc.g.N(), tc.g.M(), tc.n, tc.m)
		}
	}
}

func TestDisjointUnion(t *testing.T) {
	g := DisjointUnion(Clique(4), Cycle(5))
	if g.N() != 9 || g.M() != 11 {
		t.Fatalf("N=%d M=%d, want 9,11", g.N(), g.M())
	}
	_, count := g.ConnectedComponents()
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
}

func TestFig1GraphShape(t *testing.T) {
	g := Fig1Graph()
	if g.N() != 17 {
		t.Fatalf("|V| = %d, want 17 (paper Example 2)", g.N())
	}
	// 14 spokes + 6 + 6 clique edges + 2 bridges + 12 octahedron + 3 outsiders.
	if g.M() != 43 {
		t.Fatalf("|E| = %d, want 43", g.M())
	}
	if g.Degree(Fig1V) != 14 {
		t.Fatalf("d(v) = %d, want 14", g.Degree(Fig1V))
	}
	// Octahedron: each r vertex has degree 4 within H2, +1 for v.
	for u := Fig1R1; u <= Fig1R6; u++ {
		if g.Degree(u) != 5 {
			t.Fatalf("d(r%d) = %d, want 5", u-Fig1R1+1, g.Degree(u))
		}
	}
	// Antipodal pairs absent.
	for _, p := range [][2]int32{{Fig1R1, Fig1R4}, {Fig1R2, Fig1R5}, {Fig1R3, Fig1R6}} {
		if g.HasEdge(p[0], p[1]) {
			t.Fatalf("antipodal edge (%d,%d) present", p[0], p[1])
		}
	}
	if len(Fig1Names()) != 17 {
		t.Fatal("Fig1Names length mismatch")
	}
}

func TestCollaborationCaseStudyShape(t *testing.T) {
	cfg := DefaultCollabConfig()
	cfg.Authors = 1500
	cfg.PapersPerGroup = 25
	g := Collaboration(cfg)
	if g.N() != 1500 {
		t.Fatalf("N = %d, want 1500", g.N())
	}
	if g.M() == 0 {
		t.Fatal("collaboration graph has no edges")
	}
	// Truss hubs should be high-degree bridging vertices.
	hubDeg := 0
	for _, h := range cfg.TrussHubIDs() {
		hubDeg += g.Degree(h)
	}
	meanHub := float64(hubDeg) / float64(cfg.TrussHubs)
	meanAll := 2 * float64(g.M()) / float64(g.N())
	if meanHub < 1.5*meanAll {
		t.Fatalf("truss hub mean degree %.1f not above population mean %.1f", meanHub, meanAll)
	}
	// The three ID ranges are disjoint and consecutive.
	ids := append(append(cfg.TrussHubIDs(), cfg.CoreHubIDs()...), cfg.FragHubIDs()...)
	for i, id := range ids {
		if id != int32(i) {
			t.Fatalf("hub IDs not consecutive: %v", ids)
		}
	}
}

// TestGeneratorsDeterministic pins same-seed reproducibility: the
// persistent index store fingerprints graphs, so a generator that lets
// Go's randomized map iteration order leak into its RNG stream (as
// BarabasiAlbert's target loop once did) breaks every cross-process
// warm start on the synthetic datasets.
func TestGeneratorsDeterministic(t *testing.T) {
	sameEdges := func(name string, a, b *graph.Graph) {
		t.Helper()
		if a.M() != b.M() {
			t.Fatalf("%s: same seed produced %d vs %d edges", name, a.M(), b.M())
		}
		for id, e := range a.Edges() {
			if e != b.Edge(int32(id)) {
				t.Fatalf("%s: edge %d differs: %v vs %v", name, id, e, b.Edge(int32(id)))
			}
		}
	}
	sameEdges("BarabasiAlbert",
		BarabasiAlbert(2000, 4, 42), BarabasiAlbert(2000, 4, 42))
	cfg := OverlayConfig{
		N: 2000, Attach: 4, Cliques: 300, MinSize: 4, MaxSize: 10,
		Window: 100, AnchorBias: 0.5, Diffuse: 40, Seed: 42,
	}
	sameEdges("CommunityOverlay", CommunityOverlay(cfg), CommunityOverlay(cfg))
}
