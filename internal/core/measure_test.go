package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"trussdiv/internal/baseline"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// Measure parity: for the component and core measures, every generic
// engine (Online, Bound, Ranked) must produce byte-identical Results to
// the naive internal/baseline implementation — same vertices, same
// canonical order, same scores, same contexts — across seeded random
// graphs and worker counts {1, 4, GOMAXPROCS}.

// baselineModel returns the naive internal/baseline model of measure m.
func baselineModel(g *graph.Graph, m Measure) baseline.Model {
	if m == MeasureCore {
		return baseline.NewCoreDiv(g)
	}
	return baseline.NewCompDiv(g)
}

// baselineTopR is the reference answer: the naive full sort of
// baseline.Search plus contexts from the model, shaped like a Result.
func baselineTopR(t *testing.T, g *graph.Graph, m Measure, k int32, r int) *Result {
	t.Helper()
	model := baselineModel(g, m)
	top, err := baseline.Search(context.Background(), model, g.N(), k, r)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{TopR: make([]VertexScore, len(top))}
	res.Contexts = make(map[int32][][]int32, len(top))
	for i, e := range top {
		res.TopR[i] = VertexScore{V: e.V, Score: e.Score}
		c := model.Contexts(e.V, k)
		if len(c) == 0 {
			c = nil
		}
		res.Contexts[e.V] = c
	}
	return res
}

func measureWorkerCounts() []int {
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p != 1 {
		counts = append(counts, p)
	}
	return counts
}

func measureParityGraphs(t *testing.T) []conformanceGraph {
	rng := testutil.Rand(t, 4242)
	return []conformanceGraph{
		{"fig1", gen.Fig1Graph()},
		{"overlay", gen.CommunityOverlay(gen.OverlayConfig{
			N: 200, Attach: 3, Cliques: 50, MinSize: 4, MaxSize: 8, Seed: rng.Int63(),
		})},
		{"ba", gen.BarabasiAlbert(180, 4, rng.Int63())},
		{"er", gen.ErdosRenyiGNM(140, 800, rng.Int63())},
	}
}

func TestMeasureEnginesMatchBaseline(t *testing.T) {
	ctx := context.Background()
	for _, tc := range measureParityGraphs(t) {
		g := tc.g
		for _, m := range []Measure{MeasureComponent, MeasureCore} {
			engines := map[string]searcher{
				"online": NewOnline(g),
				"bound":  NewBound(g),
				"ranked": buildRanked(g, m),
			}
			for _, k := range []int32{2, 3, 5} {
				for _, r := range []int{1, 10, g.N()} {
					want := baselineTopR(t, g, m, k, r)
					for name, eng := range engines {
						for _, workers := range measureWorkerCounts() {
							p := Params{K: k, R: r, Measure: m, Workers: workers, SkipContexts: true}
							res, _, err := eng.Search(ctx, p)
							if err != nil {
								t.Fatalf("%s/%s/%s k=%d r=%d w=%d: %v",
									tc.name, m, name, k, r, workers, err)
							}
							if !reflect.DeepEqual(res.TopR, want.TopR) {
								t.Fatalf("%s/%s/%s k=%d r=%d w=%d: answer diverged from baseline\n got %v\nwant %v",
									tc.name, m, name, k, r, workers, res.TopR, want.TopR)
							}
							if res.Contexts != nil {
								t.Fatalf("%s/%s/%s: contexts returned without being requested",
									tc.name, m, name)
							}
							p.SkipContexts = false
							res, _, err = eng.Search(ctx, p)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(res.TopR, want.TopR) {
								t.Fatalf("%s/%s/%s k=%d r=%d w=%d: answer changed when contexts requested",
									tc.name, m, name, k, r, workers)
							}
							if !reflect.DeepEqual(res.Contexts, want.Contexts) {
								t.Fatalf("%s/%s/%s k=%d r=%d w=%d: contexts diverged from baseline",
									tc.name, m, name, k, r, workers)
							}
						}
					}
				}
			}
		}
	}
}

// TestMeasureUpperBoundIsSound: the bound engine's correctness hinges on
// MeasureUpperBound never under-estimating; check it directly against
// exact scores on random graphs.
func TestMeasureUpperBoundIsSound(t *testing.T) {
	for _, tc := range measureParityGraphs(t) {
		g := tc.g
		mv := g.TrianglesPerVertex()
		for _, m := range AllMeasures() {
			scorer := NewMeasureScorer(g, m)
			for _, k := range []int32{2, 3, 4, 6} {
				for v := int32(0); int(v) < g.N(); v++ {
					score := scorer.Score(v, k)
					ub := MeasureUpperBound(m, g.Degree(v), mv[v], k)
					if score > ub {
						t.Fatalf("%s/%s: v=%d k=%d score %d exceeds upper bound %d",
							tc.name, m, v, k, score, ub)
					}
				}
			}
		}
	}
}

// TestMeasureRankingsMatchScores: the per-k rankings must agree with the
// naive per-vertex scores for every k they cover (and cover every k with
// a positive score).
func TestMeasureRankingsMatchScores(t *testing.T) {
	for _, tc := range measureParityGraphs(t)[:2] {
		g := tc.g
		for _, m := range []Measure{MeasureComponent, MeasureCore} {
			perK := wide(buildRanked(g, m).Rankings())
			scorer := NewMeasureScorer(g, m)
			maxK := int32(len(perK) + 2)
			for k := int32(2); k <= maxK; k++ {
				dense := make([]int, g.N())
				if int(k) < len(perK) {
					for i, e := range perK[k] {
						if e.Score <= 0 {
							t.Fatalf("%s/%s k=%d: ranking holds non-positive score %d", tc.name, m, k, e.Score)
						}
						if i > 0 {
							prev := perK[k][i-1]
							if prev.Score < e.Score || (prev.Score == e.Score && prev.V >= e.V) {
								t.Fatalf("%s/%s k=%d: ranking order broken at %d", tc.name, m, k, i)
							}
						}
						dense[e.V] = e.Score
					}
				}
				for v := int32(0); int(v) < g.N(); v++ {
					if want := scorer.Score(v, k); dense[v] != want {
						t.Fatalf("%s/%s: ranking score(%d, %d) = %d, want %d",
							tc.name, m, v, k, dense[v], want)
					}
				}
			}
		}
	}
}

// TestScoresAllKMatchesScore pins the all-k vectors, counted off one
// spanning forest per ego-network, against the single-k component count
// Score runs: ScoresAllK(v)[k] == Score(v, k) for every k from 2 to one
// past the vector's end (a position past the end counts as 0), and the
// vector is nil exactly when no k scores. The bridge graph gives vertex 0
// an ego-network of two K4s joined through a vertex of core number 2,
// which must not merge the two 3-cores.
func TestScoresAllKMatchesScore(t *testing.T) {
	b := graph.NewBuilder(10)
	for _, q := range [][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}} {
		for i, u := range q {
			for _, w := range q[i+1:] {
				b.AddEdge(u, w)
			}
		}
	}
	b.AddEdge(9, 1)
	b.AddEdge(9, 5)
	for u := int32(1); u < 10; u++ {
		b.AddEdge(0, u)
	}
	graphs := append(conformanceGraphs(t), measureParityGraphs(t)...)
	graphs = append(graphs, conformanceGraph{"bridge", b.Build()})
	for _, tc := range graphs {
		for _, m := range AllMeasures() {
			all, one := NewVertexScorer(tc.g, m), NewVertexScorer(tc.g, m)
			for v := int32(0); int(v) < tc.g.N(); v++ {
				vec := slices.Clone(all.ScoresAllK(v))
				// No context outgrows the ego-network: k = d(v)+1 bounds
				// every measure's scoring thresholds.
				last := int32(len(vec))
				if vec == nil {
					last = int32(tc.g.Degree(v)) + 1
				}
				scored := false
				for k := int32(2); k <= last; k++ {
					want := one.Score(v, k)
					got := 0
					if int(k) < len(vec) {
						got = vec[k]
					}
					if got != want {
						t.Fatalf("%s/%s: ScoresAllK(%d)[%d] = %d, Score = %d", tc.name, m, v, k, got, want)
					}
					scored = scored || want > 0
				}
				if (vec == nil) == scored {
					t.Fatalf("%s/%s: ScoresAllK(%d) = %v, some k scores = %v: want nil exactly when none does",
						tc.name, m, v, vec, scored)
				}
			}
		}
	}
}

// TestTrussOnlyEnginesRejectMeasures: the index engines must fail other
// measures with the typed error rather than silently answering with
// truss semantics.
func TestTrussOnlyEnginesRejectMeasures(t *testing.T) {
	g := gen.Fig1Graph()
	gctIdx := BuildGCTIndex(g)
	engines := map[string]searcher{
		"tsd":    NewTSD(BuildTSDIndex(g)),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	}
	for name, eng := range engines {
		for _, m := range []Measure{MeasureComponent, MeasureCore} {
			_, _, err := eng.Search(context.Background(), Params{K: 3, R: 5, Measure: m})
			if !errors.Is(err, ErrUnsupportedMeasure) {
				t.Fatalf("%s with measure %s: err = %v, want ErrUnsupportedMeasure", name, m, err)
			}
			var ue *UnsupportedMeasureError
			if !errors.As(err, &ue) || ue.Measure != m {
				t.Fatalf("%s: error %v does not carry the measure", name, err)
			}
		}
	}
	// Unknown measure names are a validation error on every engine.
	if _, _, err := NewOnline(g).Search(context.Background(), Params{K: 3, R: 5, Measure: "bogus"}); err == nil {
		t.Fatal("unknown measure accepted")
	}
}

// TestParseMeasure pins the accepted names and the empty-string default.
func TestParseMeasure(t *testing.T) {
	for raw, want := range map[string]Measure{
		"": MeasureTruss, "truss": MeasureTruss,
		"component": MeasureComponent, "core": MeasureCore,
	} {
		got, err := ParseMeasure(raw)
		if err != nil || got != want {
			t.Fatalf("ParseMeasure(%q) = %v, %v; want %v", raw, got, err, want)
		}
	}
	if _, err := ParseMeasure("trussish"); err == nil {
		t.Fatal("bad measure name accepted")
	}
	if names := AllMeasures(); len(names) != 3 || names[0] != MeasureTruss {
		t.Fatalf("AllMeasures() = %v", names)
	}
}

// TestRankingsNest pins what the ranking splice relies on to stop
// looking for a vertex: under every measure, a vertex listed at k >= 3 is
// listed at k-1 too (a k-truss is a (k-1)-truss, a component of k
// vertices has k-1, a k-core is a (k-1)-core).
func TestRankingsNest(t *testing.T) {
	for _, tc := range measureParityGraphs(t) {
		for _, m := range AllMeasures() {
			perK := wide(buildRanked(tc.g, m).Rankings())
			for k := 3; k < len(perK); k++ {
				below := map[int32]bool{}
				for _, e := range perK[k-1] {
					below[e.V] = true
				}
				for _, e := range perK[k] {
					if !below[e.V] {
						t.Fatalf("%s/%s: vertex %d listed at k=%d but not at k=%d", tc.name, m, e.V, k, k-1)
					}
				}
			}
		}
	}
}
