package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
	"trussdiv/internal/truss"
)

func randomGraph(tb testing.TB, n, extra int, seed int64) *graph.Graph {
	rng := testutil.Rand(tb, seed)
	b := graph.NewBuilder(n)
	for i := 0; i < extra; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// --- The paper's worked example (Fig. 1, Examples 2-4) ---

func TestFig1ScoreOfV(t *testing.T) {
	g := gen.Fig1Graph()
	scorer := NewScorer(g)
	if got := scorer.Score(gen.Fig1V, 4); got != 3 {
		t.Fatalf("score(v) = %d, want 3 (paper Def. 3 example)", got)
	}
	contexts := scorer.Contexts(gen.Fig1V, 4)
	want := [][]int32{
		{gen.Fig1X1, gen.Fig1X2, gen.Fig1X3, gen.Fig1X4},
		{gen.Fig1Y1, gen.Fig1Y2, gen.Fig1Y3, gen.Fig1Y4},
		{gen.Fig1R1, gen.Fig1R2, gen.Fig1R3, gen.Fig1R4, gen.Fig1R5, gen.Fig1R6},
	}
	if !reflect.DeepEqual(contexts, want) {
		t.Fatalf("SC(v) = %v, want %v", contexts, want)
	}
	// k=3: H1 merges into one context, H2 stays: score = 2.
	if got := scorer.Score(gen.Fig1V, 3); got != 2 {
		t.Fatalf("score(v) @k=3 = %d, want 2", got)
	}
}

func TestFig1NonSymmetry(t *testing.T) {
	// Paper Observation 1: tau_{G_N(v)}(r1,r2) = 4 but tau_{G_N(r1)}(v,r2) = 3.
	g := gen.Fig1Graph()
	scorer := NewScorer(g)
	if got := scorer.EgoTrussness(gen.Fig1V, gen.Fig1R1, gen.Fig1R2); got != 4 {
		t.Fatalf("tau in ego(v) of (r1,r2) = %d, want 4", got)
	}
	if got := scorer.EgoTrussness(gen.Fig1R1, gen.Fig1V, gen.Fig1R2); got != 3 {
		t.Fatalf("tau in ego(r1) of (v,r2) = %d, want 3", got)
	}
}

func TestFig1AllSearchersTop1(t *testing.T) {
	g := gen.Fig1Graph()
	tsdIdx := BuildTSDIndex(g)
	gctIdx := BuildGCTIndex(g)
	searchers := map[string]interface {
		TopR(int32, int) (*Result, *Stats, error)
	}{
		"online": NewOnline(g),
		"bound":  NewBound(g),
		"tsd":    NewTSD(tsdIdx),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	}
	for name, s := range searchers {
		res, _, err := s.TopR(4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.TopR) != 1 || res.TopR[0].V != gen.Fig1V || res.TopR[0].Score != 3 {
			t.Fatalf("%s: top-1 = %+v, want v with score 3", name, res.TopR)
		}
		if len(res.Contexts[gen.Fig1V]) != 3 {
			t.Fatalf("%s: %d contexts, want 3", name, len(res.Contexts[gen.Fig1V]))
		}
	}
}

func TestFig1BoundPruning(t *testing.T) {
	// Paper Example 3: the bound framework computes score for v only —
	// all other vertices have upper bound <= 1 < 3 and are pruned.
	g := gen.Fig1Graph()
	res, stats, err := NewBound(g).TopR(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopR[0].V != gen.Fig1V {
		t.Fatalf("top-1 = %+v", res.TopR)
	}
	if stats.ScoreComputations != 1 {
		t.Fatalf("search space = %d, want 1 (paper Example 3)", stats.ScoreComputations)
	}
	// Online must compute all 17 (paper Example 2).
	_, ostats, err := NewOnline(g).TopR(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ostats.ScoreComputations != 17 {
		t.Fatalf("online search space = %d, want 17", ostats.ScoreComputations)
	}
}

// TestFig1SearchSpaceAcrossWorkers pins paper Examples 2-3 at every
// worker count: the parallel ranked scan must not score past the serial
// stopping point just because it works in chunks.
func TestFig1SearchSpaceAcrossWorkers(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		p := Params{K: 4, R: 1, Workers: workers}
		res, stats, err := NewBound(g).Search(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.TopR[0].V != gen.Fig1V || stats.ScoreComputations != 1 {
			t.Fatalf("workers=%d: bound top-1 %+v, search space %d; want v, 1 (paper Example 3)",
				workers, res.TopR, stats.ScoreComputations)
		}
		_, stats, err = NewOnline(g).Search(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ScoreComputations != 17 {
			t.Fatalf("workers=%d: online search space = %d, want 17 (paper Example 2)",
				workers, stats.ScoreComputations)
		}
	}
}

func TestFig1TSDForestShape(t *testing.T) {
	// Paper Fig. 6(c): TSD_v has 11 weight-4 edges and 1 weight-3 edge.
	idx := BuildTSDIndex(gen.Fig1Graph())
	forest := idx.Forest(gen.Fig1V)
	if len(forest) != 12 {
		t.Fatalf("forest edges = %d, want 12", len(forest))
	}
	w4, w3 := 0, 0
	for _, e := range forest {
		switch e.T {
		case 4:
			w4++
		case 3:
			w3++
		default:
			t.Fatalf("unexpected forest weight %d", e.T)
		}
	}
	if w4 != 11 || w3 != 1 {
		t.Fatalf("weights: %d fours, %d threes; want 11 and 1", w4, w3)
	}
	// Pure s̃core bound: k=4 -> ⌊11/3⌋ = 3; k=3 -> ⌊12/2⌋ = 6.
	if ub := idx.ForestBound(gen.Fig1V, 4); ub != 3 {
		t.Fatalf("s̃core @4 = %d, want 3", ub)
	}
	if ub := idx.ForestBound(gen.Fig1V, 3); ub != 6 {
		t.Fatalf("s̃core @3 = %d, want 6", ub)
	}
	// All 14 ego vertices qualify at k=4 (every neighbor is in a 4-truss).
	if got := idx.QualifyingNeighbors(gen.Fig1V, 4); got != 14 {
		t.Fatalf("t_4 = %d, want 14", got)
	}
	// Combined bound stays valid and tight: min(3, ⌊14/4⌋, ⌊52/12⌋) = 3.
	if ub := idx.ScoreUpperBound(gen.Fig1V, 4); ub != 3 {
		t.Fatalf("combined bound @4 = %d, want 3", ub)
	}
}

func TestFig1GCTStructure(t *testing.T) {
	// Paper Fig. 7(b): three supernodes of trussness 4 with member sets
	// {x1..x4}, {y1..y4}, {r1..r6}, one superedge of weight 3.
	idx := BuildGCTIndex(gen.Fig1Graph())
	taus, sizes := idx.Supernodes(gen.Fig1V)
	if len(taus) != 3 {
		t.Fatalf("supernodes = %d, want 3", len(taus))
	}
	for i, tau := range taus {
		if tau != 4 {
			t.Fatalf("supernode %d trussness = %d, want 4", i, tau)
		}
	}
	gotSizes := map[int32]int{}
	for _, s := range sizes {
		gotSizes[s]++
	}
	if gotSizes[4] != 2 || gotSizes[6] != 1 {
		t.Fatalf("supernode sizes = %v, want two 4s and one 6", sizes)
	}
	edges := idx.SuperEdges(gen.Fig1V)
	if len(edges) != 1 || edges[0].W != 3 {
		t.Fatalf("superedges = %+v, want one of weight 3", edges)
	}
	// Lemma 3: k=4 -> 3-0 = 3; k=3 -> 3-1 = 2; k=2 -> 3-1 = 2; k=5 -> 0.
	for _, tc := range []struct {
		k    int32
		want int
	}{{4, 3}, {3, 2}, {2, 2}, {5, 0}} {
		if got := idx.Score(gen.Fig1V, tc.k); got != tc.want {
			t.Fatalf("GCT score @k=%d = %d, want %d", tc.k, got, tc.want)
		}
	}
}

// --- Cross-validation: all engines agree on every vertex and every k ---

func TestAllEnginesAgreeOnScores(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(t, 28, 130, seed)
		scorer := NewScorer(g)
		tsdIdx := BuildTSDIndex(g)
		gctIdx := BuildGCTIndex(g)
		for k := int32(2); k <= 6; k++ {
			for v := int32(0); int(v) < g.N(); v++ {
				online := scorer.Score(v, k)
				tsd := tsdIdx.Score(v, k)
				gct := gctIdx.Score(v, k)
				if online != tsd || online != gct {
					t.Fatalf("seed %d k=%d v=%d: online=%d tsd=%d gct=%d",
						seed, k, v, online, tsd, gct)
				}
				if ub := tsdIdx.ScoreUpperBound(v, k); ub < online {
					t.Fatalf("seed %d k=%d v=%d: s̃core %d < score %d", seed, k, v, ub, online)
				}
			}
		}
	}
}

func TestAllEnginesAgreeOnContexts(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		g := randomGraph(t, 24, 110, seed)
		scorer := NewScorer(g)
		tsdIdx := BuildTSDIndex(g)
		gctIdx := BuildGCTIndex(g)
		for k := int32(3); k <= 5; k++ {
			for v := int32(0); int(v) < g.N(); v++ {
				want := scorer.Contexts(v, k)
				for name, got := range map[string][][]int32{
					"tsd": tsdIdx.Contexts(v, k),
					"gct": gctIdx.Contexts(v, k),
				} {
					if len(want) == 0 && len(got) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d k=%d v=%d %s contexts = %v, want %v",
							seed, k, v, name, got, want)
					}
				}
			}
		}
	}
}

func TestAllSearchersAgreeOnTopR(t *testing.T) {
	for seed := int64(40); seed < 46; seed++ {
		g := randomGraph(t, 40, 220, seed)
		tsdIdx := BuildTSDIndex(g)
		gctIdx := BuildGCTIndex(g)
		searchers := map[string]interface {
			TopR(int32, int) (*Result, *Stats, error)
		}{
			"online": NewOnline(g),
			"bound":  NewBound(g),
			"tsd":    NewTSD(tsdIdx),
			"gct":    NewGCT(gctIdx),
			"hybrid": buildRanked(g, MeasureTruss),
		}
		for k := int32(2); k <= 5; k++ {
			for _, r := range []int{1, 3, 10, 40} {
				var want []int
				for name, s := range searchers {
					res, _, err := s.TopR(k, r)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := res.ScoreMultiset()
					if want == nil {
						want = got
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d k=%d r=%d: %s scores %v, want %v",
							seed, k, r, name, got, want)
					}
				}
			}
		}
	}
}

// --- Pruning machinery ---

// TestSparsifyPreservesScores checks Property 1: an edge whose global
// trussness is below k+1 lies in no maximal connected k-truss of any
// ego-network, so the (k+1)-truss keeps every score(v) at k.
func TestSparsifyPreservesScores(t *testing.T) {
	for seed := int64(60); seed < 66; seed++ {
		g := randomGraph(t, 30, 160, seed)
		for k := int32(3); k <= 5; k++ {
			sp := truss.KTruss(g, truss.Decompose(g), k+1)
			before := NewScorer(g)
			after := NewScorer(sp)
			for v := int32(0); int(v) < g.N(); v++ {
				if b, a := before.Score(v, k), after.Score(v, k); b != a {
					t.Fatalf("seed %d k=%d v=%d: score %d -> %d after sparsify",
						seed, k, v, b, a)
				}
			}
		}
	}
}

func TestUpperBoundDominates(t *testing.T) {
	for seed := int64(70); seed < 76; seed++ {
		g := randomGraph(t, 26, 140, seed)
		scorer := NewScorer(g)
		mv := g.TrianglesPerVertex()
		for k := int32(2); k <= 5; k++ {
			for v := int32(0); int(v) < g.N(); v++ {
				ub := UpperBound(g.Degree(v), mv[v], k)
				if s := scorer.Score(v, k); s > ub {
					t.Fatalf("seed %d k=%d v=%d: score %d > bound %d", seed, k, v, s, ub)
				}
			}
		}
	}
}

func TestBoundSearchSpaceSmaller(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 600, Attach: 3, Cliques: 120, MinSize: 4, MaxSize: 9, Seed: 3,
	})
	_, onlineStats, err := NewOnline(g).TopR(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, boundStats, err := NewBound(g).TopR(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if boundStats.ScoreComputations >= onlineStats.ScoreComputations {
		t.Fatalf("bound search space %d not below online %d",
			boundStats.ScoreComputations, onlineStats.ScoreComputations)
	}
	tsdIdx := BuildTSDIndex(g)
	_, tsdStats, err := NewTSD(tsdIdx).TopR(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tsdStats.ScoreComputations > boundStats.ScoreComputations {
		t.Fatalf("tsd search space %d above bound %d (s̃core should prune harder)",
			tsdStats.ScoreComputations, boundStats.ScoreComputations)
	}
}

// --- Parameter validation ---

func TestValidation(t *testing.T) {
	g := gen.Clique(5)
	if _, _, err := NewOnline(g).TopR(1, 1); err == nil {
		t.Fatal("k=1 should be rejected")
	}
	if _, _, err := NewOnline(g).TopR(3, 0); err == nil {
		t.Fatal("r=0 should be rejected")
	}
	// r > n clamps to n.
	res, _, err := NewOnline(g).TopR(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopR) != 5 {
		t.Fatalf("answer size = %d, want clamp to 5", len(res.TopR))
	}
}

func TestEdgelessAndTinyGraphs(t *testing.T) {
	g := gen.Star(6) // triangle-free: every score is 0
	for _, s := range []interface {
		TopR(int32, int) (*Result, *Stats, error)
	}{NewOnline(g), NewBound(g), NewTSD(BuildTSDIndex(g)), NewGCT(BuildGCTIndex(g))} {
		res, _, err := s.TopR(3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TopR) != 2 {
			t.Fatalf("answer size = %d, want 2", len(res.TopR))
		}
		for _, e := range res.TopR {
			if e.Score != 0 {
				t.Fatalf("score = %d, want 0 on a star", e.Score)
			}
		}
	}
}

// Score of the hub of a "flower" of c disjoint k-cliques all attached to a
// center: exactly c contexts at threshold k.
func TestFlowerScores(t *testing.T) {
	for _, tc := range []struct{ cliques, k int }{{2, 3}, {3, 4}, {5, 4}, {4, 5}} {
		b := graph.NewBuilder(1)
		next := int32(1)
		for c := 0; c < tc.cliques; c++ {
			members := make([]int32, tc.k)
			for i := range members {
				members[i] = next
				next++
				b.AddEdge(0, members[i])
			}
			for i := 0; i < tc.k; i++ {
				for j := i + 1; j < tc.k; j++ {
					b.AddEdge(members[i], members[j])
				}
			}
		}
		g := b.Build()
		scorer := NewScorer(g)
		if got := scorer.Score(0, int32(tc.k)); got != tc.cliques {
			t.Fatalf("flower(%d cliques of K%d): score = %d, want %d",
				tc.cliques, tc.k, got, tc.cliques)
		}
		if got := BuildGCTIndex(g).Score(0, int32(tc.k)); got != tc.cliques {
			t.Fatalf("flower GCT score = %d, want %d", got, tc.cliques)
		}
		if got := BuildTSDIndex(g).Score(0, int32(tc.k)); got != tc.cliques {
			t.Fatalf("flower TSD score = %d, want %d", got, tc.cliques)
		}
	}
}
