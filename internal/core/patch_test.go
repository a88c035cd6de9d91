package core

import (
	"fmt"
	"reflect"
	"slices"
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
		p := PatchAll(newG, old, targets, AffectedVertices(g, newG, ins, del), 0, nil)
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
	patched := PatchAll(g, old, targets, nil, 0, nil).MeasureRanks[MeasureTruss]
	if !reflect.DeepEqual(patched, old.MeasureRanks[MeasureTruss]) {
		t.Fatal("empty affected set must reproduce the rankings unchanged")
	}
}

// spliceRankingsMap is the map-based splice spliceRankings replaced, kept
// as the reference it must agree with: every level rebuilt entry by entry,
// with a map lookup per old entry.
func spliceRankingsMap(old [][]VertexScore, affected []int32, fresh [][]int32) [][]VertexScore {
	aff := make(map[int32]bool, len(affected))
	maxK := max(len(old)-1, 2)
	for i, v := range affected {
		aff[v] = true
		maxK = max(maxK, len(fresh[i])-1)
	}
	perK := make([][]VertexScore, maxK+1)
	for k := 2; k <= maxK; k++ {
		var oldList []VertexScore
		if k < len(old) {
			oldList = old[k]
		}
		var scored []VertexScore
		for i, v := range affected {
			if s := fresh[i]; k < len(s) && s[k] > 0 {
				scored = append(scored, VertexScore{V: v, Score: int(s[k])})
			}
		}
		sortAnswer(scored)
		var merged []VertexScore
		i := 0
		for _, e := range oldList {
			if aff[e.V] {
				continue
			}
			for i < len(scored) && compareRanked(scored[i], e) < 0 {
				merged = append(merged, scored[i])
				i++
			}
			merged = append(merged, e)
		}
		if merged = append(merged, scored[i:]...); len(merged) > 0 {
			perK[k] = merged
		}
	}
	top := 2
	for k := 2; k <= maxK; k++ {
		if len(perK[k]) > 0 {
			top = k
		}
	}
	return perK[:top+1]
}

// markAffected is PatchAll's flat affected-vertex marker.
func markAffected(n int, affected []int32) []bool {
	marked := make([]bool, n)
	for _, v := range affected {
		marked[v] = true
	}
	return marked
}

func cloneTable(t [][]VertexScore) [][]VertexScore {
	out := make([][]VertexScore, len(t))
	for k, l := range t {
		out[k] = slices.Clone(l)
	}
	return out
}

// checkSplice runs spliceRankings and the map-based reference on one
// input, requires them to agree with each other and with want, and
// requires old to be left as it was. It returns the spliced table.
func checkSplice(t *testing.T, label string, old [][]VertexScore, affected []int32, fresh [][]int32, n int, want [][]VertexScore) [][]VertexScore {
	t.Helper()
	before := cloneTable(old)
	got := spliceRankings(old, affected, markAffected(n, affected), fresh)
	if ref := spliceRankingsMap(old, affected, fresh); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: splice diverges from the map-based reference\n got %v\n ref %v", label, got, ref)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: splice diverges from the expected table\n got %v\nwant %v", label, got, want)
	}
	if !reflect.DeepEqual(old, before) {
		t.Fatalf("%s: splice wrote into the old table", label)
	}
	return got
}

// TestSpliceRankingsEdgeCases pins the ranking splice on hand-made tables
// (fresh entries above and below every old one, an affected vertex absent
// from a level, a level that empties to nil, the table trimmed to its new
// maximum k, an unchanged level shared with the old table) and on patch
// passes over random graphs against BuildAll, always agreeing with the
// map-based reference and never writing the old table.
func TestSpliceRankingsEdgeCases(t *testing.T) {
	vs := func(pairs ...int) []VertexScore {
		var out []VertexScore
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, VertexScore{V: int32(pairs[i]), Score: pairs[i+1]})
		}
		return out
	}
	old := [][]VertexScore{nil, nil,
		vs(1, 5, 2, 4, 3, 3, 4, 2, 5, 1),
		vs(2, 2, 6, 1),
		vs(6, 1),
	}
	// Vertex 0 is absent from every old level and enters k = 2 above all
	// entries; vertex 7 enters it below all of them; vertex 6 leaves
	// k = 3 and k = 4, so k = 4 empties and the table shrinks to k = 3.
	checkSplice(t, "enter above/below, empty level, trim", old,
		[]int32{0, 6, 7}, [][]int32{{0, 0, 9}, {0, 0, 0, 0, 0}, {0, 0, 1}}, 8,
		[][]VertexScore{nil, nil, vs(0, 9, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 7, 1), vs(2, 2)})

	// Vertex 3 moves within k = 2 and keeps its k = 3 absence; vertex 2
	// keeps both of its scores. Levels 3 and 4 are unchanged: they are
	// old's own slices.
	got := checkSplice(t, "unchanged levels shared", old,
		[]int32{2, 3}, [][]int32{{0, 0, 4, 2}, {0, 0, 6}}, 8,
		[][]VertexScore{nil, nil, vs(3, 6, 1, 5, 2, 4, 4, 2, 5, 1), vs(2, 2, 6, 1), vs(6, 1)})
	for k := 3; k <= 4; k++ {
		if &got[k][0] != &old[k][0] {
			t.Fatalf("level %d was copied, want it shared with the old table", k)
		}
	}
	if &got[2][0] == &old[2][0] {
		t.Fatal("the changed level 2 aliases the old table")
	}

	// An affected vertex absent from every level before and after leaves
	// the whole table shared; one that gains a level above the old
	// maximum grows it.
	got = checkSplice(t, "absent everywhere", old, []int32{9}, [][]int32{nil}, 10, old)
	for k := 2; k < len(old); k++ {
		if &got[k][0] != &old[k][0] {
			t.Fatalf("level %d was copied, want it shared with the old table", k)
		}
	}
	checkSplice(t, "grow past the old maximum", old, []int32{9}, [][]int32{{0, 0, 0, 0, 0, 0, 2}}, 10,
		[][]VertexScore{nil, nil, old[2], old[3], old[4], nil, vs(9, 2)})

	// Every entry leaves: all levels nil, the table at its minimum length.
	checkSplice(t, "table empties", old,
		[]int32{1, 2, 3, 4, 5, 6}, make([][]int32, 6), 8, [][]VertexScore{nil, nil, nil})

	// Patch passes: the fresh vectors of one PatchAll-shaped pass, spliced
	// into BuildAll's table of the old graph, must give BuildAll's table
	// of the edited graph.
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(t, 40, 200, seed+900)
		ms := AllMeasures()
		old := BuildAll(g, BuildTargets{Measures: ms}, 1).MeasureRanks
		ins, del := randomEdits(t, g, 4, 4, seed+901)
		newG, err := ApplyEdits(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		affected := AffectedVertices(g, newG, ins, del)
		p := newEgoPass(newG, BuildTargets{Measures: ms}, len(affected))
		p.run(len(affected), 1, nil, func(slot int) int32 { return affected[slot] })
		want := BuildAll(newG, BuildTargets{Measures: ms}, 1).MeasureRanks
		for _, m := range ms {
			checkSplice(t, fmt.Sprintf("seed %d %s", seed, m), old[m], affected, p.vecs[m], newG.N(), want[m])
		}
	}
}
