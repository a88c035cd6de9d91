package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// randomEdits picks a batch of valid insertions (absent pairs) and
// deletions (present edges) from g.
func randomEdits(tb testing.TB, g *graph.Graph, nIns, nDel int, seed int64) (ins, del []graph.Edge) {
	rng := testutil.Rand(tb, seed)
	n := int32(g.N())
	chosen := map[graph.Edge]bool{}
	for len(ins) < nIns {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		if g.HasEdge(u, v) || chosen[e] {
			continue
		}
		chosen[e] = true
		ins = append(ins, e)
	}
	edges := g.Edges()
	for len(del) < nDel && len(del) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if chosen[e] {
			continue
		}
		chosen[e] = true
		del = append(del, e)
	}
	return ins, del
}

// patchTarget is one row of the patch-parity table: the targets PatchAll
// is asked for, and the measures whose per-k table the old products hold.
type patchTarget struct {
	name   string
	t      BuildTargets
	tables []Measure
}

// TestPatchMatchesBuildAll is the maintenance contract of the one
// per-vertex driver: PatchAll over the affected vertices of a random
// insert/delete batch deep-equals BuildAll over the edited graph — for
// every target and measure, at every worker count — its TSD scores equal
// the online scorer's, the pfree row each built and patched table
// derives equals a brute-force ranking, and the previous products are
// untouched (copy-on-write). The single-structure rows run under their
// own tests below.
func TestPatchMatchesBuildAll(t *testing.T) {
	checkPatchMatchesBuildAll(t, 900, []patchTarget{
		{"everything", BuildTargets{TSD: true, GCT: true, Measures: AllMeasures()}, AllMeasures()},
	})
}

// TestTSDUpdateMatchesRebuild: a TSD-only patch pass equals a TSD-only
// BuildAll over the edited graph.
func TestTSDUpdateMatchesRebuild(t *testing.T) {
	checkPatchMatchesBuildAll(t, 300, []patchTarget{{"tsd", BuildTargets{TSD: true}, nil}})
}

// TestGCTUpdateMatchesRebuild: a GCT-only patch pass equals a GCT-only
// BuildAll over the edited graph.
func TestGCTUpdateMatchesRebuild(t *testing.T) {
	checkPatchMatchesBuildAll(t, 400, []patchTarget{{"gct", BuildTargets{GCT: true}, nil}})
}

// TestPatchMeasureRankingsMatchesRebuild: each measure's per-k table,
// spliced alone by the patch pass, equals a fresh BuildAll table.
func TestPatchMeasureRankingsMatchesRebuild(t *testing.T) {
	var rows []patchTarget
	for _, m := range AllMeasures() {
		rows = append(rows, patchTarget{string(m) + "-table", BuildTargets{Measures: []Measure{m}}, []Measure{m}})
	}
	checkPatchMatchesBuildAll(t, 800, rows)
}

// TestParallelBuildsMatchSerial: the driver's products do not depend on
// its worker count. The one-target TSD pass equals the serial pass
// (BuildTSDIndex is that pass; the online scorer is the independent TSD
// oracle, see checkTSDScores), and the one-target GCT pass equals the
// paper's GCT construction.
func TestParallelBuildsMatchSerial(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 1200, Attach: 4, Cliques: 250, MinSize: 4, MaxSize: 10, Diffuse: 20, Seed: 77,
	})
	serialTSD := BuildTSDIndex(g)
	serialGCT := BuildGCTIndex(g)
	all := BuildTargets{TSD: true, GCT: true, Measures: AllMeasures()}
	serialAll := BuildAll(g, all, 1)
	for _, workers := range []int{1, 2, 4, 0} {
		if p := BuildAll(g, BuildTargets{TSD: true}, workers); !reflect.DeepEqual(p.TSD, serialTSD) {
			t.Fatalf("workers=%d: TSD pass diverges from the serial pass", workers)
		}
		if p := BuildAll(g, BuildTargets{GCT: true}, workers); !reflect.DeepEqual(p.GCT, serialGCT) {
			t.Fatalf("workers=%d: GCT pass diverges from BuildGCTIndex", workers)
		}
		if p := BuildAll(g, all, workers); !reflect.DeepEqual(p, serialAll) {
			t.Fatalf("workers=%d: all-target pass diverges from the serial pass", workers)
		}
	}
}

// checkPatchMatchesBuildAll runs the patch-parity table for the given
// target rows over seeded random graphs and edit batches.
func checkPatchMatchesBuildAll(t *testing.T, seed int64, targets []patchTarget) {
	t.Helper()
	graphs := []struct {
		name     string
		g        func(seed int64) *graph.Graph
		ins, del int
	}{
		{"sparse", func(s int64) *graph.Graph { return randomGraph(t, 35, 170, s) }, 6, 6},
		{"dense", func(s int64) *graph.Graph { return randomGraph(t, 30, 260, s) }, 4, 4},
		{"insert-only", func(s int64) *graph.Graph { return randomGraph(t, 40, 200, s) }, 8, 0},
		{"delete-only", func(s int64) *graph.Graph { return randomGraph(t, 40, 200, s) }, 0, 8},
		{"overlay", func(s int64) *graph.Graph {
			return gen.CommunityOverlay(gen.OverlayConfig{
				N: 120, Attach: 3, Cliques: 30, MinSize: 4, MaxSize: 7, Seed: s,
			})
		}, 5, 5},
	}
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	rng := testutil.Rand(t, seed)
	for _, gc := range graphs {
		for trial := 0; trial < 3; trial++ {
			g := gc.g(rng.Int63())
			ins, del := randomEdits(t, g, gc.ins, gc.del, rng.Int63())
			newG, err := ApplyEdits(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			affected := AffectedVertices(g, newG, ins, del)
			all := BuildTargets{TSD: true, GCT: true, Measures: AllMeasures()}
			before := BuildAll(g, all, 1)
			want := BuildAll(newG, all, 1)
			var online [][]int // computed on the first TSD row
			// Brute-force pfree rankings, per measure on its first table row.
			pfreeWant := map[Measure][]VertexScore{}
			for _, tc := range targets {
				label := gc.name + "/" + tc.name
				old := BuildAll(g, all, 1)
				for m := range old.MeasureRanks {
					if !slices.Contains(tc.tables, m) {
						delete(old.MeasureRanks, m)
					}
				}
				for _, w := range workerCounts {
					p := PatchAll(newG, old, tc.t, affected, w)
					if tc.t.TSD != (p.TSD != nil) || tc.t.GCT != (p.GCT != nil) {
						t.Fatalf("%s/w=%d: products %+v do not match targets %+v", label, w, p, tc.t)
					}
					if tc.t.TSD {
						if !reflect.DeepEqual(p.TSD, want.TSD) {
							t.Fatalf("%s/w=%d: patched TSD index diverges from BuildAll", label, w)
						}
						if online == nil {
							online = onlineTrussScores(newG)
						}
						checkTSDScores(t, fmt.Sprintf("%s/w=%d: patched", label, w), p.TSD, online)
					}
					if tc.t.GCT && !reflect.DeepEqual(p.GCT, want.GCT) {
						t.Fatalf("%s/w=%d: patched GCT index diverges from BuildAll", label, w)
					}
					if len(p.MeasureRanks) != len(tc.tables) {
						t.Fatalf("%s/w=%d: patched %d tables, want %d", label, w, len(p.MeasureRanks), len(tc.tables))
					}
					for _, m := range tc.tables {
						if !reflect.DeepEqual(p.MeasureRanks[m], want.MeasureRanks[m]) {
							t.Fatalf("%s/w=%d: patched %s table diverges from BuildAll\n got %v\nwant %v",
								label, w, m, p.MeasureRanks[m], want.MeasureRanks[m])
						}
					}
					for _, m := range tc.tables {
						if pfreeWant[m] == nil {
							pfreeWant[m] = brutePFreeRanking(newG, m)
							checkPFreeRow(t, label+": built "+string(m), newG, m, want.MeasureRanks[m], pfreeWant[m])
						}
						checkPFreeRow(t, fmt.Sprintf("%s/w=%d: patched %s", label, w, m),
							newG, m, p.MeasureRanks[m], pfreeWant[m])
					}
				}
				for m := range old.MeasureRanks {
					if !reflect.DeepEqual(old.MeasureRanks[m], before.MeasureRanks[m]) {
						t.Fatalf("%s: the patch mutated the old %s table", label, m)
					}
				}
				if !reflect.DeepEqual(old.TSD, before.TSD) || !reflect.DeepEqual(old.GCT, before.GCT) {
					t.Fatalf("%s: the patch mutated the old indexes", label)
				}
			}
		}
	}
}

// brutePFreeRanking ranks every vertex of g by its parameter-free score
// under measure m, straight from the definition — the largest h with
// s(v, max(h, 2)) >= h over ScoresAllK's vector — in canonical order, with
// the zero-score vertices after the scored ones by ascending ID: what a
// K = 0 search with r = n answers. It shares no code with the pfree row.
func brutePFreeRanking(g *graph.Graph, m Measure) []VertexScore {
	vs := NewVertexScorer(g, m)
	out := make([]VertexScore, g.N())
	for v := range out {
		allK := vs.ScoresAllK(int32(v))
		h := max(len(allK)-1, 0)
		for h > 0 && allK[max(h, 2)] < h {
			h--
		}
		out[v] = VertexScore{V: int32(v), Score: h}
	}
	slices.SortStableFunc(out, func(a, b VertexScore) int { return b.Score - a.Score })
	return out
}

// checkPFreeRow answers the parameter-free query (K = 0, r = n) from a
// Ranked table over perK and compares it with the brute-force ranking.
func checkPFreeRow(t *testing.T, label string, g *graph.Graph, m Measure, perK [][]VertexScore, want []VertexScore) {
	t.Helper()
	res, _, err := NewRanked(NewMeasureScorer(g, m), perK).Search(context.Background(),
		Params{R: g.N(), SkipContexts: true, Measure: m})
	if err != nil {
		t.Fatalf("%s: K=0 search: %v", label, err)
	}
	if !reflect.DeepEqual(res.TopR, want) {
		t.Fatalf("%s: pfree row diverges from brute force\n got %v\nwant %v", label, res.TopR, want)
	}
}

// onlineTrussScores scores every vertex v of g at every k from 2 to
// deg(v)+1 with the online scorer, as out[v][k]: a TSD oracle that shares
// no code with the forest construction (Algorithm 5) or its readers.
func onlineTrussScores(g *graph.Graph) [][]int {
	vs := NewVertexScorer(g, MeasureTruss)
	out := make([][]int, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		out[v] = make([]int, g.Degree(v)+2)
		for k := int32(2); int(k) < len(out[v]); k++ {
			out[v][k] = vs.Score(v, k)
		}
	}
	return out
}

// checkTSDScores checks a TSD index's exact score and score upper bound
// at every vertex and k against scores from onlineTrussScores.
func checkTSDScores(t *testing.T, label string, idx *TSDIndex, online [][]int) {
	t.Helper()
	scorer := idx.Scorer()
	for v, scores := range online {
		for k := int32(2); int(k) < len(scores); k++ {
			got, ub := scorer.Score(int32(v), k), idx.ScoreUpperBound(int32(v), k)
			if got != scores[k] || ub < scores[k] {
				t.Fatalf("%s TSD score(%d, %d) = %d (upper bound %d), online scorer says %d",
					label, v, k, got, ub, scores[k])
			}
		}
	}
}

func TestUpdateValidation(t *testing.T) {
	g := gen.Clique(4)
	// Inserting an existing edge fails.
	if _, err := ApplyEdits(g, []graph.Edge{{U: 0, V: 1}}, nil); err == nil {
		t.Fatal("want error inserting existing edge")
	}
	// Removing a missing edge fails.
	if _, err := ApplyEdits(g, nil, []graph.Edge{{U: 0, V: 9}}); err == nil {
		t.Fatal("want error removing out-of-range edge")
	}
	g2 := gen.Cycle(5)
	if _, err := ApplyEdits(g2, nil, []graph.Edge{{U: 0, V: 2}}); err == nil {
		t.Fatal("want error removing absent edge")
	}
	// Out-of-range insertion fails.
	if _, err := ApplyEdits(g2, []graph.Edge{{U: 0, V: 99}}, nil); err == nil {
		t.Fatal("want error inserting out-of-range edge")
	}
}

// rebuildEdited is the edit as plain edge-set operations — drop every
// removal, add every insertion, let the Builder lay the graph out — after
// checking the batch contract in ApplyEdits' order with maps and counts:
// the oracle for its checks and its merge.
func rebuildEdited(g *graph.Graph, insert, remove []graph.Edge) (*graph.Graph, error) {
	n := int32(g.N())
	canon := func(e graph.Edge) graph.Edge {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		return e
	}
	for _, e := range append(slices.Clone(insert), remove...) {
		e = canon(e)
		if e.U == e.V {
			return nil, &UpdateError{Edge: e, Reason: "self-loop"}
		}
		if e.U < 0 || e.V >= n {
			return nil, &UpdateError{Edge: e,
				Reason: fmt.Sprintf("endpoint out of range [0,%d) (the vertex set is fixed at Open; rebuild to grow it)", n)}
		}
	}
	// smallest returns the smallest edge of edges that fault names a
	// reason for, as an *UpdateError, or nil.
	smallest := func(edges []graph.Edge, fault func(graph.Edge) string) error {
		var worst *UpdateError
		for _, e := range edges {
			e = canon(e)
			if r := fault(e); r != "" && (worst == nil || graph.CompareEdges(e, worst.Edge) < 0) {
				worst = &UpdateError{Edge: e, Reason: r}
			}
		}
		if worst == nil {
			return nil
		}
		return worst
	}
	ins, del := map[graph.Edge]int{}, map[graph.Edge]int{}
	for _, e := range insert {
		ins[canon(e)]++
	}
	for _, e := range remove {
		del[canon(e)]++
	}
	if err := smallest(append(slices.Clone(insert), remove...), func(e graph.Edge) string {
		// An edge that is both repeated and in both lists is reported
		// as ApplyEdits meets it in the merged sorted lists, insertions
		// first.
		switch {
		case ins[e] > 1:
			return "duplicate edit in batch"
		case ins[e] > 0 && del[e] > 0:
			return "edge appears in both Insert and Delete"
		case del[e] > 1:
			return "duplicate edit in batch"
		}
		return ""
	}); err != nil {
		return nil, err
	}
	present := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		present[e] = true
	}
	if err := smallest(insert, func(e graph.Edge) string {
		if present[e] {
			return "insert of an edge already present"
		}
		return ""
	}); err != nil {
		return nil, err
	}
	if err := smallest(remove, func(e graph.Edge) string {
		if !present[e] {
			return "delete of an edge not present"
		}
		return ""
	}); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if del[e] == 0 {
			b.AddEdge(e.U, e.V)
		}
	}
	for e := range ins {
		b.AddEdge(e.U, e.V)
	}
	return b.Build(), nil
}

// ApplyEdits merges the sorted batches into the edge list instead of
// rebuilding: for batches in any orientation and order, with repeats,
// self-loops and invalid edits, every rejection must be the oracle's
// (same edge, same reason), and every accepted batch must give the graph
// (by Fingerprint and CSR) of the plain edge-set rebuild.
func TestApplyEditsMatchesRebuild(t *testing.T) {
	rng := testutil.Rand(t, 71)
	accepted, reasons := 0, map[string]int{}
	for trial := 0; trial < 400; trial++ {
		n := 6 + rng.Intn(30)
		g := randomGraph(t, n, rng.Intn(4*n), int64(trial))
		pick := func() graph.Edge {
			return graph.Edge{U: rng.Int31n(int32(n)+1) - rng.Int31n(2), V: rng.Int31n(int32(n) + 1)}
		}
		var ins, del []graph.Edge
		for i := rng.Intn(6); i > 0; i-- {
			e := pick()
			if rng.Intn(4) > 0 && (e.U == e.V || e.U < 0 || e.U >= int32(n) || e.V >= int32(n) || g.HasEdge(e.U, e.V)) {
				continue // keep most batches valid
			}
			ins = append(ins, e)
			if rng.Intn(12) == 0 {
				ins = append(ins, graph.Edge{U: e.V, V: e.U})
			}
		}
		for i := rng.Intn(6); i > 0 && g.M() > 0; i-- {
			e := g.Edge(rng.Int31n(int32(g.M())))
			if rng.Intn(6) == 0 {
				e = pick()
			}
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			del = append(del, e)
			if rng.Intn(12) == 0 {
				del = append(del, e)
			}
		}
		got, gotErr := ApplyEdits(g, ins, del)
		want, wantErr := rebuildEdited(g, ins, del)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d (ins %v del %v): err %v, want %v", trial, ins, del, gotErr, wantErr)
		}
		if wantErr != nil {
			var ue *UpdateError
			if !errors.As(gotErr, &ue) || !errors.Is(gotErr, ErrBadUpdate) {
				t.Fatalf("trial %d: err %T is not an *UpdateError matching ErrBadUpdate", trial, gotErr)
			}
			reasons[strings.SplitN(ue.Reason, " [", 2)[0]]++
			continue
		}
		accepted++
		if got.Fingerprint() != want.Fingerprint() || got.N() != want.N() {
			t.Fatalf("trial %d (ins %v del %v): edited graph differs from the rebuild", trial, ins, del)
		}
		gotOff, gotAdj, gotEid, _ := got.CSR()
		wantOff, wantAdj, wantEid, _ := want.CSR()
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) || !slices.Equal(gotEid, wantEid) {
			t.Fatalf("trial %d: CSR arrays differ from the rebuild", trial)
		}
	}
	t.Logf("accepted %d, rejected %v", accepted, reasons)
}

func TestUpdateAffectedSetIsLocal(t *testing.T) {
	// Two far-apart cliques: editing inside one must not touch the other.
	g := gen.DisjointUnion(gen.Clique(6), gen.Clique(6))
	del := []graph.Edge{{U: 0, V: 1}} // one edge inside the first clique
	newG, err := ApplyEdits(g, nil, del)
	if err != nil {
		t.Fatal(err)
	}
	affected := AffectedVertices(g, newG, nil, del)
	// Affected = endpoints + their 4 common neighbors = 6 (first clique).
	if !reflect.DeepEqual(affected, []int32{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("affected = %v, want the first clique", affected)
	}
	updated := PatchAll(newG, BuildAll(g, BuildTargets{TSD: true}, 1), BuildTargets{TSD: true}, affected, 0).TSD.Scorer()
	// Second clique untouched: each vertex's ego is K5, one 5-truss.
	for v := int32(6); v < 12; v++ {
		if got := updated.Score(v, 5); got != 1 {
			t.Fatalf("clique-2 vertex %d score@5 = %d, want 1", v, got)
		}
	}
	// First clique: a non-endpoint's ego is K5 minus an edge, which is a
	// 4-truss but no longer a 5-truss.
	for v := int32(2); v < 6; v++ {
		if got := updated.Score(v, 4); got != 1 {
			t.Fatalf("clique-1 vertex %d score@4 = %d, want 1", v, got)
		}
		if got := updated.Score(v, 5); got != 0 {
			t.Fatalf("clique-1 vertex %d score@5 = %d, want 0", v, got)
		}
	}
	// The deleted edge's endpoint keeps a K4 ego: one 4-truss.
	if got := updated.Score(0, 4); got != 1 {
		t.Fatalf("endpoint score@4 = %d, want 1", got)
	}
}
