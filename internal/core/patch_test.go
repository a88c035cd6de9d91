package core

import (
	"reflect"
	"testing"
)

// TestPatchHybridMatchesRebuild: the hybrid engine's table is the truss
// row of the per-measure rankings, patched like every other row. The
// patched table must equal a fresh build over the edited graph and agree
// score for score (Lemma 3) with the paper's own GCT construction over
// the edited graph — an oracle independent of the per-vertex pass.
func TestPatchHybridMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 30, 140, seed+700)
		targets := BuildTargets{GCT: true, Measures: []Measure{MeasureTruss}}
		old := BuildAll(g, targets, 1)
		ins, del := randomEdits(t, g, 4, 4, seed+701)
		newG, err := ApplyEdits(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		p := PatchAll(newG, old, targets, AffectedVertices(g, newG, ins, del), 0)
		patched := p.MeasureRanks[MeasureTruss]
		if fresh := buildRanked(newG, MeasureTruss).Rankings(); !reflect.DeepEqual(patched, fresh) {
			t.Fatalf("seed %d: patched hybrid rankings diverge from rebuild\npatched: %v\nfresh:   %v",
				seed, patched, fresh)
		}
		oracle := BuildGCTIndex(newG)
		if !reflect.DeepEqual(p.GCT, oracle) {
			t.Fatalf("seed %d: patched GCT index diverges from BuildGCTIndex", seed)
		}
		for k := int32(2); int(k) < len(patched)+1; k++ {
			dense := make([]int, newG.N())
			if int(k) < len(patched) {
				for _, e := range patched[k] {
					dense[e.V] = e.Score
				}
			}
			for v := int32(0); int(v) < newG.N(); v++ {
				if got, want := dense[v], oracle.Score(v, k); got != want {
					t.Fatalf("seed %d: patched score(%d, %d) = %d, BuildGCTIndex says %d",
						seed, v, k, got, want)
				}
			}
		}
	}
}

func TestPatchHybridNoAffected(t *testing.T) {
	g := randomGraph(t, 20, 80, 31)
	targets := BuildTargets{Measures: []Measure{MeasureTruss}}
	old := BuildAll(g, targets, 1)
	patched := PatchAll(g, old, targets, nil, 0).MeasureRanks[MeasureTruss]
	if !reflect.DeepEqual(patched, old.MeasureRanks[MeasureTruss]) {
		t.Fatal("empty affected set must reproduce the rankings unchanged")
	}
}
