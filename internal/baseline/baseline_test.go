package baseline

import (
	"reflect"
	"sync"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

func TestCompDivFig1(t *testing.T) {
	// Paper §1: in the ego-network of v, the component-based model sees H1
	// (8 vertices) as ONE context no matter the k — it cannot decompose it.
	g := gen.Fig1Graph()
	m := NewCompDiv(g)
	// k=4: components {x1..x4, y1..y4} and {r1..r6}: 2 contexts, not 3.
	if got := m.Score(gen.Fig1V, 4); got != 2 {
		t.Fatalf("Comp-Div score(v)@4 = %d, want 2", got)
	}
	// k up to 6: both components still qualify by size.
	for k := int32(1); k <= 6; k++ {
		if got := m.Score(gen.Fig1V, k); got != 2 {
			t.Fatalf("Comp-Div score(v)@%d = %d, want 2", k, got)
		}
	}
	// k=7: only H1 (8 vertices) qualifies.
	if got := m.Score(gen.Fig1V, 7); got != 1 {
		t.Fatalf("Comp-Div score(v)@7 = %d, want 1", got)
	}
	ctx := m.Contexts(gen.Fig1V, 4)
	if len(ctx) != 2 || len(ctx[0]) != 8 || len(ctx[1]) != 6 {
		t.Fatalf("Comp-Div contexts = %v", ctx)
	}
}

func TestCoreDivFig1(t *testing.T) {
	// Paper §1: for 1<=k<=3 H1 is one maximal connected k-core; for k>=4
	// H1 disappears while the octahedron survives (it is a 4-core).
	g := gen.Fig1Graph()
	m := NewCoreDiv(g)
	if got := m.Score(gen.Fig1V, 3); got != 2 {
		t.Fatalf("Core-Div score(v)@3 = %d, want 2 (H1 + octahedron)", got)
	}
	if got := m.Score(gen.Fig1V, 4); got != 1 {
		t.Fatalf("Core-Div score(v)@4 = %d, want 1 (octahedron only)", got)
	}
	ctx := m.Contexts(gen.Fig1V, 4)
	if len(ctx) != 1 || len(ctx[0]) != 6 {
		t.Fatalf("Core-Div contexts@4 = %v, want the 6 r-vertices", ctx)
	}
	if got := m.Score(gen.Fig1V, 5); got != 0 {
		t.Fatalf("Core-Div score(v)@5 = %d, want 0", got)
	}
}

func TestModelsOnFlower(t *testing.T) {
	// Hub attached to 3 disjoint K4s: all three models agree the hub has
	// diversity 3 at k=4 (components of size 4, 3-cores... k-core param 3).
	b := graph.NewBuilder(1)
	next := int32(1)
	for c := 0; c < 3; c++ {
		members := make([]int32, 4)
		for i := range members {
			members[i] = next
			next++
			b.AddEdge(0, members[i])
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(members[i], members[j])
			}
		}
	}
	g := b.Build()
	if got := NewCompDiv(g).Score(0, 4); got != 3 {
		t.Fatalf("Comp-Div = %d, want 3", got)
	}
	if got := NewCoreDiv(g).Score(0, 3); got != 3 {
		t.Fatalf("Core-Div = %d, want 3", got)
	}
}

func TestTopRGeneric(t *testing.T) {
	g := gen.Fig1Graph()
	top, err := TopR(NewCompDiv(g), g.N(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("answer size = %d, want 3", len(top))
	}
	if top[0].V != gen.Fig1V || top[0].Score != 2 {
		t.Fatalf("top-1 = %+v, want v with Comp-Div score 2", top[0])
	}
	// Scores are non-increasing.
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
	if _, err := TopR(NewCompDiv(g), g.N(), 0, 1); err == nil {
		t.Fatal("k=0 should be rejected")
	}
	if _, err := TopR(NewCompDiv(g), g.N(), 2, 0); err == nil {
		t.Fatal("r=0 should be rejected")
	}
}

func TestRandomSelector(t *testing.T) {
	sel := Random(100, 10, 42)
	if len(sel) != 10 {
		t.Fatalf("selected %d, want 10", len(sel))
	}
	seen := map[int32]bool{}
	for _, e := range sel {
		if seen[e.V] {
			t.Fatal("duplicate vertex selected")
		}
		seen[e.V] = true
	}
	// Deterministic for a fixed seed.
	again := Random(100, 10, 42)
	for i := range sel {
		if sel[i] != again[i] {
			t.Fatal("Random not deterministic for fixed seed")
		}
	}
	if got := Random(5, 10, 1); len(got) != 5 {
		t.Fatalf("clamp: got %d, want 5", len(got))
	}
}

// Property: Comp-Div score with k=1 equals the number of ego components;
// non-increasing in k.
func TestCompDivMonotoneInK(t *testing.T) {
	rng := testutil.Rand(t, 9)
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		m := NewCompDiv(g)
		for v := int32(0); int(v) < g.N(); v++ {
			prev := -1
			for k := int32(1); k <= 6; k++ {
				s := m.Score(v, k)
				if prev >= 0 && s > prev {
					t.Fatalf("Comp-Div not monotone: v=%d k=%d %d > %d", v, k, s, prev)
				}
				prev = s
			}
		}
	}
}

// TestModelsConcurrentMatchSerial shares one CompDiv and one CoreDiv
// between goroutines that call Score and Contexts at once: each answer
// must equal a serial pass. The models lend pooled extraction scratches,
// and trussdiv.DiversityModel exposes them to concurrent callers.
func TestModelsConcurrentMatchSerial(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 9, Seed: 21,
	})
	ks := []int32{2, 3, 4}
	type answer struct {
		score    int
		contexts [][]int32
	}
	for _, m := range []Model{NewCompDiv(g), NewCoreDiv(g)} {
		serial := make([]answer, g.N()*len(ks))
		for v := 0; v < g.N(); v++ {
			for ki, k := range ks {
				serial[v*len(ks)+ki] = answer{m.Score(int32(v), k), m.Contexts(int32(v), k)}
			}
		}
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker starts at a different vertex so the calls
				// interleave over different ego-networks.
				for i := 0; i < g.N(); i++ {
					v := (i + w*g.N()/workers) % g.N()
					for ki, k := range ks {
						want := serial[v*len(ks)+ki]
						if got := m.Score(int32(v), k); got != want.score {
							t.Errorf("%s: Score(%d,%d) = %d concurrently, %d serially", m.Name(), v, k, got, want.score)
						}
						if got := m.Contexts(int32(v), k); !reflect.DeepEqual(got, want.contexts) {
							t.Errorf("%s: Contexts(%d,%d) = %v concurrently, %v serially", m.Name(), v, k, got, want.contexts)
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
