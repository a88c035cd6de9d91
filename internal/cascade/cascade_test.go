package cascade

import (
	"math/rand"
	"testing"

	"trussdiv/internal/gen"
)

func TestSimulateDeterministicEdges(t *testing.T) {
	// p=1: everything reachable activates, rounds equal BFS distance.
	g := gen.Path(5)
	ic := NewIC(g, 1.0)
	out := ic.Simulate([]int32{0}, rand.New(rand.NewSource(1)))
	if out.Count != 5 {
		t.Fatalf("activated %d, want 5", out.Count)
	}
	for v := int32(0); v < 5; v++ {
		if out.Round[v] != v {
			t.Fatalf("round[%d] = %d, want %d", v, out.Round[v], v)
		}
	}
	// p=0: only seeds activate.
	ic = NewIC(g, 0.0)
	out = ic.Simulate([]int32{2}, rand.New(rand.NewSource(1)))
	if out.Count != 1 || out.Round[2] != 0 || out.Activated(0) {
		t.Fatal("p=0 cascade should not spread")
	}
}

func TestSimulateStaysInComponent(t *testing.T) {
	g := gen.DisjointUnion(gen.Clique(5), gen.Clique(5))
	ic := NewIC(g, 1.0)
	out := ic.Simulate([]int32{0}, rand.New(rand.NewSource(2)))
	if out.Count != 5 {
		t.Fatalf("activated %d, want 5 (one component)", out.Count)
	}
	for v := int32(5); v < 10; v++ {
		if out.Activated(v) {
			t.Fatal("cascade crossed components")
		}
	}
}

func TestMonteCarloBasics(t *testing.T) {
	g := gen.Clique(6)
	ic := NewIC(g, 0.3)
	mc := ic.MonteCarlo([]int32{0}, 400, 7)
	if mc.Activation[0] != 1.0 {
		t.Fatalf("seed activation = %f, want 1", mc.Activation[0])
	}
	for v := 1; v < 6; v++ {
		if mc.Activation[v] <= 0.2 || mc.Activation[v] >= 1.0 {
			t.Fatalf("activation[%d] = %f, implausible for p=0.3 in K6", v, mc.Activation[v])
		}
	}
	if mc.MeanSpread < 2 || mc.MeanSpread > 6 {
		t.Fatalf("mean spread = %f", mc.MeanSpread)
	}
	// Determinism.
	mc2 := ic.MonteCarlo([]int32{0}, 400, 7)
	for v := range mc.Activation {
		if mc.Activation[v] != mc2.Activation[v] {
			t.Fatal("MonteCarlo not deterministic for fixed seed")
		}
	}
}

func TestActivationMonotoneInP(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 2, Cliques: 60, MinSize: 3, MaxSize: 6, Seed: 3,
	})
	seeds := []int32{0, 1, 2}
	lo := NewIC(g, 0.02).MonteCarlo(seeds, 300, 5).MeanSpread
	hi := NewIC(g, 0.2).MonteCarlo(seeds, 300, 5).MeanSpread
	if hi <= lo {
		t.Fatalf("spread not monotone in p: %.2f (p=.02) vs %.2f (p=.2)", lo, hi)
	}
}

func TestExpectedActivated(t *testing.T) {
	g := gen.Clique(4)
	mc := NewIC(g, 0.5).MonteCarlo([]int32{0}, 200, 11)
	all := mc.ExpectedActivated([]int32{0, 1, 2, 3})
	if all < 1 || all > 4 {
		t.Fatalf("expected activated = %f", all)
	}
	none := mc.ExpectedActivated(nil)
	if none != 0 {
		t.Fatalf("empty target set = %f, want 0", none)
	}
}

func TestLatencyCurve(t *testing.T) {
	g := gen.Path(6)
	ic := NewIC(g, 1.0)
	curve := ic.LatencyCurve([]int32{0}, []int32{1, 3, 5}, 50, 13)
	// Deterministic p=1 path: target 1 at round 1, 3 at round 3, 5 at 5.
	if len(curve) != 6 {
		t.Fatalf("curve length = %d, want 6", len(curve))
	}
	want := []float64{0, 1, 1, 2, 2, 3}
	for r, w := range want {
		if curve[r] != w {
			t.Fatalf("curve[%d] = %f, want %f", r, curve[r], w)
		}
	}
	// Cumulative curves never decrease.
	for r := 1; r < len(curve); r++ {
		if curve[r] < curve[r-1] {
			t.Fatal("latency curve not monotone")
		}
	}
}

func TestMaxInfluenceRIS(t *testing.T) {
	// Two communities bridged weakly; RIS with 2 seeds should pick one
	// vertex from each dense block rather than two from one.
	g := gen.DisjointUnion(gen.Clique(8), gen.Clique(8))
	seeds := MaxInfluenceRIS(g, 0.3, 2, 400, 17)
	if len(seeds) != 2 {
		t.Fatalf("seeds = %v", seeds)
	}
	if (seeds[0] < 8) == (seeds[1] < 8) {
		t.Fatalf("seeds %v landed in one component", seeds)
	}
}

func TestRISClamp(t *testing.T) {
	g := gen.Clique(4)
	if got := MaxInfluenceRIS(g, 0.1, 10, 50, 3); len(got) != 4 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestSeedDedup(t *testing.T) {
	g := gen.Path(4)
	ic := NewIC(g, 1.0)
	out := ic.Simulate([]int32{1, 1, 1}, rand.New(rand.NewSource(3)))
	if out.Count != 4 {
		t.Fatalf("count = %d, want 4", out.Count)
	}
	if out.Round[1] != 0 {
		t.Fatal("seed round wrong")
	}
}
