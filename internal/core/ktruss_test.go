package core

import (
	"slices"
	"testing"

	"trussdiv/internal/ego"
	"trussdiv/internal/gen"
	"trussdiv/internal/testutil"
	"trussdiv/internal/truss"
)

// TestFixedKTrussMatchesFullDecomposition pins the fixed-k truss Score,
// Contexts and ScoreAndContexts, which peel each ego-network only down
// to k, against the count and the contexts of its full decomposition, at
// every vertex of a seeded overlay graph and every k from 2 to one past
// the ego-network's largest trussness.
func TestFixedKTrussMatchesFullDecomposition(t *testing.T) {
	rng := testutil.Rand(t, 38)
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 12, Seed: rng.Int63(),
	})
	vs := NewVertexScorer(g, MeasureTruss)
	shared := NewScorer(g)
	var ts truss.Scratch
	for v := int32(0); int(v) < g.N(); v++ {
		net := ego.ExtractOne(g, v)
		tau := truss.Decompose(net.G)
		for k := int32(2); k <= truss.MaxTrussness(tau)+1; k++ {
			want := ts.Components(net.G, tau, k, net.Verts)
			if got := vs.Score(v, k); got != len(want) {
				t.Fatalf("v=%d k=%d: Score = %d, full decomposition %d", v, k, got, len(want))
			}
			if got := vs.Contexts(v, k); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("v=%d k=%d: Contexts = %v, full decomposition %v", v, k, got, want)
			}
			score, got := shared.ScoreAndContexts(v, k)
			if score != len(want) || !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("v=%d k=%d: ScoreAndContexts = %d %v, full decomposition %v", v, k, score, got, want)
			}
		}
	}
}
