package tcp

import (
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
)

func TestFig18Contrast(t *testing.T) {
	// The paper's Figure 18: for the same vertex q1, TCP forest weights
	// are all 4 (every ego edge lives in a global 4-truss community),
	// while TSD forest weights are {3,3,3,3,2} (local ego trussness).
	g := gen.Fig18Graph()
	tcpIdx := Build(g)
	tsdIdx := core.BuildTSDIndex(g)

	tcpForest := tcpIdx.Forest(gen.Fig18Q1)
	if len(tcpForest) != 5 {
		t.Fatalf("TCP forest has %d edges, want 5", len(tcpForest))
	}
	for _, e := range tcpForest {
		if e.Wt != 4 {
			t.Fatalf("TCP forest edge (%d,%d) weight = %d, want 4", e.U, e.W, e.Wt)
		}
	}

	tsdForest := tsdIdx.Forest(gen.Fig18Q1)
	if len(tsdForest) != 5 {
		t.Fatalf("TSD forest has %d edges, want 5", len(tsdForest))
	}
	weights := map[int32]int{}
	for _, e := range tsdForest {
		weights[e.T]++
	}
	if weights[3] != 4 || weights[2] != 1 {
		t.Fatalf("TSD forest weights = %v, want four 3s and one 2 (paper Fig. 18c)", weights)
	}

	// The headline contrast on edge (q2,q3): globally a 4-truss edge
	// (via z5,z6), locally trussness 2 in the ego of q1.
	if got := tcpIdx.Trussness(gen.Fig18Q2, gen.Fig18Q3); got != 4 {
		t.Fatalf("global tau(q2,q3) = %d, want 4", got)
	}
	scorer := core.NewScorer(g)
	if got := scorer.EgoTrussness(gen.Fig18Q1, gen.Fig18Q2, gen.Fig18Q3); got != 2 {
		t.Fatalf("tau_ego(q1)(q2,q3) = %d, want 2", got)
	}
}
