package kcore

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

// naiveCore computes core numbers by repeated peeling with full rescans.
func naiveCore(g *graph.Graph) []int32 {
	n := g.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	core := make([]int32, n)
	remaining := n
	k := int32(0)
	degOf := func(v int32) int32 {
		d := int32(0)
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				d++
			}
		}
		return d
	}
	for remaining > 0 {
		for {
			peeled := false
			for v := int32(0); int(v) < n; v++ {
				if alive[v] && degOf(v) <= k {
					alive[v] = false
					core[v] = k
					remaining--
					peeled = true
				}
			}
			if !peeled {
				break
			}
		}
		k++
	}
	return core
}

func randGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < extra; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestDecomposeClique(t *testing.T) {
	g := gen.Clique(6)
	for v, c := range Decompose(g) {
		if c != 5 {
			t.Fatalf("K6 core(%d) = %d, want 5", v, c)
		}
	}
}

func TestDecomposeMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		want := naiveCore(g)
		got := Decompose(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	g := gen.DisjointUnion(gen.Clique(4), gen.Clique(5), gen.Cycle(6))
	core := Decompose(g)
	// k=3: the two cliques qualify (core 3 and 4), the cycle (core 2) does not.
	comps := Components(g, core, 3)
	if len(comps) != 2 {
		t.Fatalf("3-core components = %d, want 2", len(comps))
	}
	if CountComponents(g, core, 3) != 2 {
		t.Fatal("CountComponents mismatch")
	}
	// k=2: all three.
	if CountComponents(g, core, 2) != 3 {
		t.Fatal("2-core components should be 3")
	}
	if d := slices.Max(core); d != 4 {
		t.Fatalf("degeneracy = %d, want 4", d)
	}
}

// Property: core number <= degree, and the k-core subgraph has min degree k.
func TestCoreInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(25)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		core := Decompose(g)
		for v := 0; v < n; v++ {
			if core[v] > int32(g.Degree(int32(v))) {
				return false
			}
		}
		k := slices.Max(core) // the degeneracy
		// Within the k-core induced subgraph every member has >= k members
		// as neighbors.
		member := make([]bool, n)
		for v := 0; v < n; v++ {
			member[v] = core[v] >= k
		}
		for v := 0; v < n; v++ {
			if !member[v] {
				continue
			}
			d := 0
			for _, w := range g.Neighbors(int32(v)) {
				if member[w] {
					d++
				}
			}
			if int32(d) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
