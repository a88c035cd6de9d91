package truss

import (
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

func TestDecomposeParallelMatchesSerial(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Clique(7),
		gen.Cycle(9),
		gen.Star(8),
	}
	for seed := int64(0); seed < 15; seed++ {
		graphs = append(graphs, randomGraph(t, 18+int(seed)*2, 50+6*int(seed), seed+400))
	}
	for gi, g := range graphs {
		want := Decompose(g)
		for _, workers := range []int{0, 1, 2, 3, 4, 8} {
			got := DecomposeParallel(g, workers)
			if len(got) != len(want) {
				t.Fatalf("graph %d workers %d: %d taus, want %d", gi, workers, len(got), len(want))
			}
			for id := range want {
				if got[id] != want[id] {
					e := g.Edge(int32(id))
					t.Fatalf("graph %d workers %d: edge (%d,%d) tau = %d, serial = %d",
						gi, workers, e.U, e.V, got[id], want[id])
				}
			}
		}
	}
}

// TestDecomposeFullReturnsPristineSupports is also the regression for the
// "sup is consumed" bug on both paths (one worker peels, four run the
// h-index descent): the incremental repair path seeds from the supports
// DecomposeFull returns, so the peel must not scribble over them.
func TestDecomposeFullReturnsPristineSupports(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := randomGraph(t, 30, 120, 7)
		tau, sup := DecomposeFull(g, workers)
		wantTau := Decompose(g)
		wantSup := g.Supports()
		for id := range wantTau {
			if tau[id] != wantTau[id] {
				t.Fatalf("workers %d: edge %d tau = %d, want %d", workers, id, tau[id], wantTau[id])
			}
			if sup[id] != wantSup[id] {
				t.Fatalf("workers %d: edge %d sup = %d, want %d (supports must survive)",
					workers, id, sup[id], wantSup[id])
			}
		}
	}
}

func TestDecomposeFullEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(5).Build()
	tau, sup := DecomposeFull(g, 4)
	if len(tau) != 0 || len(sup) != 0 {
		t.Fatalf("edgeless graph: got %d taus, %d sups", len(tau), len(sup))
	}
}
