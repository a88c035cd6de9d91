package core

import (
	"reflect"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// Bound keeps one level of bound inputs per threshold. These tests pin
// what a level holds and that the truss decomposition under the levels
// is computed once per Bound; bound_alloc_test.go pins that a warm scan
// stops paying for per-query O(n) state.

// TestBoundLevelsMatchSparsify: the truss level of k holds exactly the
// degrees and triangle counts of the Property 1 sparsified graph, for
// every k up to τ_max+1 (past τ_max the sparsified graph is edgeless),
// and the shared non-truss level those of the whole graph. The global
// decomposition is read once however many levels are built.
func TestBoundLevelsMatchSparsify(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"fig1", gen.Fig1Graph()},
		{"overlay", gen.CommunityOverlay(gen.OverlayConfig{
			N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 9, Seed: 41,
		})},
	} {
		g := tc.g
		tau := truss.Decompose(g)
		tauMax := truss.MaxTrussness(tau)
		calls := 0
		b := NewBoundFrom(NewScorers(g), func() []int32 { calls++; return tau })
		for k := int32(2); k <= tauMax+1; k++ {
			sp := SparsifyWithTau(g, tau, k).Graph
			checkLevel(t, tc.name, k, b.level(MeasureTruss, k), sp)
		}
		if calls != 1 {
			t.Errorf("%s: the truss decomposition was read %d times, want 1", tc.name, calls)
		}
		// k = 2..τ_max each own a level; τ_max+1 shares τ_max's.
		if got, want := b.LevelBuilds(), int(tauMax)-1; got != want {
			t.Errorf("%s: %d truss levels built, want %d", tc.name, got, want)
		}
		for _, m := range []Measure{MeasureComponent, MeasureCore} {
			checkLevel(t, tc.name+"/"+string(m), 3, b.level(m, 3), g)
		}
		if got, want := b.LevelBuilds(), int(tauMax); got != want {
			t.Errorf("%s: %d levels built after the non-truss level, want %d", tc.name, got, want)
		}
	}
}

func checkLevel(t *testing.T, name string, k int32, lv *boundLevel, h *graph.Graph) {
	t.Helper()
	deg := make([]int32, h.N())
	for v := range deg {
		deg[v] = int32(h.Degree(int32(v)))
	}
	if !reflect.DeepEqual(lv.deg, deg) {
		t.Errorf("%s k=%d: level degrees differ from the sparsified graph's", name, k)
	}
	if !reflect.DeepEqual(lv.tri, h.TrianglesPerVertex()) {
		t.Errorf("%s k=%d: level triangle counts differ from the sparsified graph's", name, k)
	}
}
