package core

import (
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

// The flat form is how the index store persists and reloads both
// indexes: Flatten on write, NewTSDIndexFromFlat/NewGCTIndexFromFlat over
// the loaded slab on read.

func TestTSDIndexRoundTrip(t *testing.T) {
	g := randomGraph(t, 40, 200, 5)
	idx := BuildTSDIndex(g)
	back, err := NewTSDIndexFromFlat(g, idx.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	for k := int32(2); k <= 6; k++ {
		for v := int32(0); int(v) < g.N(); v++ {
			if idx.Score(v, k) != back.Score(v, k) {
				t.Fatalf("k=%d v=%d: score differs after round trip", k, v)
			}
			if idx.ScoreUpperBound(v, k) != back.ScoreUpperBound(v, k) {
				t.Fatalf("k=%d v=%d: bound differs after round trip", k, v)
			}
		}
	}
}

func TestGCTIndexRoundTrip(t *testing.T) {
	g := randomGraph(t, 40, 200, 6)
	idx := BuildGCTIndex(g)
	back, err := NewGCTIndexFromFlat(g, idx.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	for k := int32(2); k <= 6; k++ {
		for v := int32(0); int(v) < g.N(); v++ {
			if idx.Score(v, k) != back.Score(v, k) {
				t.Fatalf("k=%d v=%d: score differs after round trip", k, v)
			}
		}
	}
}

func TestIndexReadRejectsWrongGraph(t *testing.T) {
	g := randomGraph(t, 30, 120, 7)
	other := gen.Clique(5)
	if _, err := NewTSDIndexFromFlat(other, BuildTSDIndex(g).Flatten()); err == nil {
		t.Fatal("want vertex-count mismatch error")
	}
	if _, err := NewGCTIndexFromFlat(other, BuildGCTIndex(g).Flatten()); err == nil {
		t.Fatal("want vertex-count mismatch error")
	}
}

// Corrupt offset tables must be rejected before any per-vertex window is
// sliced out of the flat arrays.
func TestIndexReadRejectsCorruptCounts(t *testing.T) {
	g := randomGraph(t, 20, 70, 31)
	tsd := BuildTSDIndex(g).Flatten()
	gct := BuildGCTIndex(g).Flatten()
	n := g.N()

	tsdCases := map[string]func(f *TSDFlat){
		"huge forest count":   func(f *TSDFlat) { f.ForestOff[1] = 1 << 40 },
		"negative first":      func(f *TSDFlat) { f.ForestOff[0] = -1 },
		"decreasing":          func(f *TSDFlat) { f.CumOff[1], f.CumOff[2] = f.CumOff[2]+1, f.CumOff[1] },
		"total past the data": func(f *TSDFlat) { f.CumOff[n]++ },
	}
	for name, mut := range tsdCases {
		f := tsd
		f.ForestOff = append([]int64(nil), tsd.ForestOff...)
		f.CumOff = append([]int64(nil), tsd.CumOff...)
		mut(&f)
		if _, err := NewTSDIndexFromFlat(g, f); err == nil {
			t.Errorf("tsd %s: corrupt offsets accepted", name)
		}
	}
	// The same overshoot for TSD, within vertex 0's degree bound: path
	// 0-1-2 with an empty forest, whose vertex 0 claims one forest edge.
	path, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	overshoot := TSDFlat{Mv: make([]int32, 3), ForestOff: []int64{0, 1, 0, 0}, CumOff: make([]int64, 4)}
	if _, err := NewTSDIndexFromFlat(path, overshoot); err == nil {
		t.Error("tsd overshoot, then decrease: corrupt offsets accepted")
	}

	// A vertex's window past its array, with the table decreasing only
	// after it: superedge counts have no degree bound to catch it.
	withNodes := -1
	for v := 0; v < n-1 && withNodes < 0; v++ {
		if gct.NodeOff[v+1] > gct.NodeOff[v] {
			withNodes = v
		}
	}
	if withNodes < 0 {
		t.Fatal("no vertex with supernodes below n-1")
	}
	gctCases := map[string]func(f *GCTFlat){
		"huge supernode count":     func(f *GCTFlat) { f.NodeOff[1] = 1 << 40 },
		"negative first":           func(f *GCTFlat) { f.MemberOff[0] = -1 },
		"total past the data":      func(f *GCTFlat) { f.EdgeOff[n]++ },
		"overshoot, then decrease": func(f *GCTFlat) { f.EdgeOff[withNodes+1] = 1 << 56 },
	}
	for name, mut := range gctCases {
		f := gct
		f.NodeOff = append([]int64(nil), gct.NodeOff...)
		f.MemberOff = append([]int64(nil), gct.MemberOff...)
		f.EdgeOff = append([]int64(nil), gct.EdgeOff...)
		mut(&f)
		if _, err := NewGCTIndexFromFlat(g, f); err == nil {
			t.Errorf("gct %s: corrupt offsets accepted", name)
		}
	}
}

func TestGCTSmallerThanTSD(t *testing.T) {
	// Table 3's headline: the GCT compression is smaller than TSD on
	// triangle-rich graphs (supernode members replace intra-context edges).
	// Sizes are those of the flat arrays, which the store persists as is.
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 800, Attach: 3, Cliques: 200, MinSize: 4, MaxSize: 10, Seed: 11,
	})
	a, b := BuildTSDIndex(g).Flatten(), BuildGCTIndex(g).Flatten()
	tsd := 8*(len(a.ForestOff)+len(a.CumOff)) + 12*len(a.Forest) + 4*(len(a.Mv)+len(a.Cum))
	gct := 8*(len(b.NodeOff)+len(b.BoundOff)+len(b.MemberOff)+len(b.EdgeOff)) + 12*len(b.Edges) +
		4*(len(b.NodeTau)+len(b.Bounds)+len(b.Members))
	if gct >= tsd {
		t.Fatalf("GCT flat %d bytes >= TSD %d; compression lost", gct, tsd)
	}
}
