package core

import (
	"reflect"
	"testing"
)

// TestPatchHybridMatchesRebuild: the hybrid engine's table is the truss
// row of the per-measure rankings, patched like every other row. The
// patched table must equal a fresh build over the edited graph and agree
// with the incrementally repaired GCT index score for score (Lemma 3).
func TestPatchHybridMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 30, 140, seed+700)
		idx := BuildGCTIndex(g)
		old := buildRanked(g, MeasureTruss).Rankings()
		oldCopy := make([][]VertexScore, len(old))
		for k := range old {
			oldCopy[k] = append([]VertexScore(nil), old[k]...)
		}

		ins, del := randomEdits(t, g, 4, 4, seed+701)
		newG, err := ApplyEdits(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		newIdx, _ := idx.UpdateOnto(newG, ins, del)
		affected := AffectedVertices(g, newG, ins, del)

		patched := PatchMeasureRankings(newG, MeasureTruss, old, affected)
		fresh := buildRanked(newG, MeasureTruss).Rankings()
		if !reflect.DeepEqual(patched, fresh) {
			t.Fatalf("seed %d: patched hybrid rankings diverge from rebuild\npatched: %v\nfresh:   %v",
				seed, patched, fresh)
		}
		for k := int32(2); int(k) < len(patched)+1; k++ {
			dense := make([]int, newG.N())
			if int(k) < len(patched) {
				for _, e := range patched[k] {
					dense[e.V] = e.Score
				}
			}
			for v := int32(0); int(v) < newG.N(); v++ {
				if got, want := dense[v], newIdx.Score(v, k); got != want {
					t.Fatalf("seed %d: patched score(%d, %d) = %d, repaired GCT index says %d",
						seed, v, k, got, want)
				}
			}
		}
		// Copy-on-write contract: the previous snapshot's rankings survive.
		for k := range oldCopy {
			if !reflect.DeepEqual(old[k], oldCopy[k]) {
				t.Fatalf("seed %d k=%d: the patch mutated the old rankings", seed, k)
			}
		}
	}
}

func TestPatchHybridNoAffected(t *testing.T) {
	g := randomGraph(t, 20, 80, 31)
	old := buildRanked(g, MeasureTruss).Rankings()
	patched := PatchMeasureRankings(g, MeasureTruss, old, nil)
	if !reflect.DeepEqual(patched, old) {
		t.Fatal("empty affected set must reproduce the rankings unchanged")
	}
}

func TestPatchMeasureRankingsMatchesRebuild(t *testing.T) {
	// The truss row is pinned against the GCT index above; the other two
	// measures' tables patch through the same function.
	for _, m := range []Measure{MeasureComponent, MeasureCore} {
		for seed := int64(0); seed < 5; seed++ {
			g := randomGraph(t, 28, 130, seed+800)
			old := buildRanked(g, m).Rankings()
			oldCopy := make([][]VertexScore, len(old))
			for k := range old {
				oldCopy[k] = append([]VertexScore(nil), old[k]...)
			}

			ins, del := randomEdits(t, g, 3, 4, seed+801)
			newG, err := ApplyEdits(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			affected := AffectedVertices(g, newG, ins, del)

			patched := PatchMeasureRankings(newG, m, old, affected)
			fresh := buildRanked(newG, m).Rankings()
			if !reflect.DeepEqual(patched, fresh) {
				t.Fatalf("measure %q seed %d: patched rankings diverge from rebuild\npatched: %v\nfresh:   %v",
					m, seed, patched, fresh)
			}
			for k := range oldCopy {
				if !reflect.DeepEqual(old[k], oldCopy[k]) {
					t.Fatalf("measure %q seed %d k=%d: patch mutated the old rankings", m, seed, k)
				}
			}
		}
	}
}
