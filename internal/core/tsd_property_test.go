package core

import (
	"testing"
	"testing/quick"
)

// The QualifyingNeighbors shortcut relies on the maximum-spanning-forest
// property: a neighbor u is touched by the weight->=k forest prefix iff
// u's ego vertex-trussness is >= k. Verify t_k equals the actual touched
// count for every vertex and every k.
func TestQualifyingNeighborsMatchesPrefixTouch(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 30, 140, seed)
		idx := BuildTSDIndex(g)
		for v := int32(0); int(v) < g.N(); v++ {
			forest := idx.Forest(v)
			for k := int32(2); k <= 7; k++ {
				touched := map[int32]struct{}{}
				for _, e := range forest {
					if e.T >= k {
						touched[e.U] = struct{}{}
						touched[e.W] = struct{}{}
					}
				}
				if idx.QualifyingNeighbors(v, k) != len(touched) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The stored forest must be acyclic and spanning per threshold: at every
// k, (#touched vertices - #prefix edges) is non-negative and equals the
// component count, which Score reports.
func TestForestPrefixComponentIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 26, 120, seed+500)
		tsd := BuildTSDIndex(g)
		scorer := NewScorer(g)
		for v := int32(0); int(v) < g.N(); v++ {
			for k := int32(2); k <= 6; k++ {
				if tsd.Score(v, k) != scorer.Score(v, k) {
					return false
				}
				if tsd.Score(v, k) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Forest weights are stored descending, and the number of forest edges is
// bounded by d(v)-1 (spanning forest of the ego vertices).
func TestForestInvariants(t *testing.T) {
	g := randomGraph(t, 40, 220, 9)
	idx := BuildTSDIndex(g)
	for v := int32(0); int(v) < g.N(); v++ {
		forest := idx.Forest(v)
		if len(forest) > 0 && len(forest) > g.Degree(v)-1 {
			t.Fatalf("v=%d: forest has %d edges for degree %d", v, len(forest), g.Degree(v))
		}
		for i := 1; i < len(forest); i++ {
			if forest[i-1].T < forest[i].T {
				t.Fatalf("v=%d: forest weights not descending", v)
			}
		}
		for _, e := range forest {
			if e.U == e.W || int(e.U) >= g.Degree(v) || int(e.W) >= g.Degree(v) {
				t.Fatalf("v=%d: bad forest edge %+v", v, e)
			}
		}
	}
}

// TestHybridAccessors: the hybrid engine's table (the truss row of the
// ranking tables) is sorted per k, every ranked score agrees with the GCT
// index (Lemma 3), and reads outside the table are nil.
func TestHybridAccessors(t *testing.T) {
	g := randomGraph(t, 30, 150, 11)
	gct := BuildGCTIndex(g)
	h := buildRanked(g, MeasureTruss)
	maxK := int32(len(h.Rankings())) - 1
	if maxK < 2 || h.Measure() != MeasureTruss {
		t.Fatalf("maxK = %d, measure %q", maxK, h.Measure())
	}
	for k := int32(2); k <= maxK; k++ {
		row := h.Ranking(k)
		ranking := row.AppendTo(nil, row.Len())
		for i := 1; i < len(ranking); i++ {
			if ranking[i].Score > ranking[i-1].Score {
				t.Fatalf("k=%d: ranking not sorted", k)
			}
		}
		// Every ranked score agrees with the GCT index.
		for _, e := range ranking {
			if gct.Score(e.V, k) != e.Score {
				t.Fatalf("k=%d v=%d: ranking %d != index %d",
					k, e.V, e.Score, gct.Score(e.V, k))
			}
		}
	}
	if h.Ranking(maxK+5).Len() != 0 {
		t.Fatal("out-of-range ranking should be empty")
	}
}

func TestGCTSupernodeInvariants(t *testing.T) {
	g := randomGraph(t, 35, 180, 13)
	idx := BuildGCTIndex(g)
	for v := int32(0); int(v) < g.N(); v++ {
		taus, sizes := idx.Supernodes(v)
		var members int32
		for i := range taus {
			if i > 0 && taus[i] > taus[i-1] {
				t.Fatalf("v=%d: supernode trussness not descending", v)
			}
			if sizes[i] <= 0 {
				t.Fatalf("v=%d: empty supernode", v)
			}
			members += sizes[i]
		}
		// Members are exactly the non-isolated ego vertices: each belongs
		// to one supernode.
		if int(members) > g.Degree(v) {
			t.Fatalf("v=%d: %d members exceed degree %d", v, members, g.Degree(v))
		}
		for _, e := range idx.SuperEdges(v) {
			if e.A == e.B {
				t.Fatalf("v=%d: self-loop superedge", v)
			}
			if int(e.A) >= len(taus) || int(e.B) >= len(taus) {
				t.Fatalf("v=%d: superedge endpoint out of range", v)
			}
			// Superedge weight never exceeds either endpoint's trussness.
			if e.W > taus[e.A] || e.W > taus[e.B] {
				t.Fatalf("v=%d: superedge weight %d above endpoints (%d,%d)",
					v, e.W, taus[e.A], taus[e.B])
			}
		}
	}
}
