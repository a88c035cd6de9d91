package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// Cross-engine conformance: every engine must return the *identical*
// Result — same vertices, same order, same scores, same contexts — for
// the same Query, serially and for every worker count. The canonical
// tie order (score desc, vertex asc) is what makes this a meaningful
// byte-equality check rather than a multiset comparison.

// conformanceWorkerCounts are the pool sizes every engine is exercised
// with; 1 is the serial reference path.
func conformanceWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

type conformanceGraph struct {
	name string
	g    *graph.Graph
}

func conformanceGraphs(t *testing.T) []conformanceGraph {
	rng := testutil.Rand(t, 777)
	return []conformanceGraph{
		{"fig1", gen.Fig1Graph()},
		{"star", gen.Star(40)},
		{"overlay", gen.CommunityOverlay(gen.OverlayConfig{
			N: 240, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 9, Seed: rng.Int63(),
		})},
		{"ba", gen.BarabasiAlbert(200, 4, rng.Int63())},
		{"er", gen.ErdosRenyiGNM(150, 900, rng.Int63())},
	}
}

// conformanceEngines builds the five paper engines over one graph.
func conformanceEngines(g *graph.Graph) map[string]searcher {
	gctIdx := BuildGCTIndex(g)
	return map[string]searcher{
		"online": NewOnline(g),
		"bound":  NewBound(g),
		"tsd":    NewTSD(BuildTSDIndex(g)),
		"gct":    NewGCT(gctIdx),
		"hybrid": buildRanked(g, MeasureTruss),
	}
}

// buildRanked builds measure m's rankings-backed searcher; for the truss
// measure it is the hybrid engine of paper Exp-4 (by Lemma 3 its per-k
// rankings are the truss row of BuildAll's ranking tables).
func buildRanked(g *graph.Graph, m Measure) *Ranked {
	p := BuildAll(g, BuildTargets{Measures: []Measure{m}}, 0)
	return NewRanked(NewMeasureScorer(g, m), p.MeasureRanks[m])
}

// candidateSets returns the candidate variants each configuration runs
// with: the full range, a shuffled subset, a descending subset (order
// must not matter), and a single vertex.
func candidateSets(rng interface{ Perm(int) []int }, n int) map[string][]int32 {
	perm := rng.Perm(n)
	subset := make([]int32, 0, n/3+1)
	for _, v := range perm[:n/3+1] {
		subset = append(subset, int32(v))
	}
	desc := make([]int32, n/4+1)
	for i := range desc {
		desc[i] = int32(n - 1 - i)
	}
	return map[string][]int32{
		"all":    nil,
		"subset": subset,
		"desc":   desc,
		"single": {int32(n / 2)},
	}
}

func TestEngineConformance(t *testing.T) {
	ctx := context.Background()
	workerCounts := conformanceWorkerCounts()
	for _, cg := range conformanceGraphs(t) {
		engines := conformanceEngines(cg.g)
		online := engines["online"]
		n := cg.g.N()
		rng := testutil.Rand(t, 778)
		for candName, cands := range candidateSets(rng, n) {
			for _, k := range []int32{2, 3, 4} {
				for _, r := range []int{1, 7, n + 13} {
					base := Params{K: k, R: r, Candidates: cands, Workers: 1}
					ref, refStats, err := online.Search(ctx, base)
					if err != nil {
						t.Fatalf("%s/%s k=%d r=%d: online reference: %v", cg.name, candName, k, r, err)
					}
					for name, s := range engines {
						for _, workers := range workerCounts {
							p := base
							p.Workers = workers
							res, stats, err := s.Search(ctx, p)
							if err != nil {
								t.Fatalf("%s/%s k=%d r=%d w=%d %s: %v",
									cg.name, candName, k, r, workers, name, err)
							}
							if !reflect.DeepEqual(res.TopR, ref.TopR) {
								t.Fatalf("%s/%s k=%d r=%d w=%d: %s answer\n%v\nwant (online serial)\n%v",
									cg.name, candName, k, r, workers, name, res.TopR, ref.TopR)
							}
							if !reflect.DeepEqual(res.Contexts, ref.Contexts) {
								t.Fatalf("%s/%s k=%d r=%d w=%d: %s contexts differ from online serial",
									cg.name, candName, k, r, workers, name)
							}
							// The scan engines visit every candidate, so their
							// search-space accounting must not depend on the
							// worker count.
							if name == "online" || name == "gct" {
								if stats.ScoreComputations != refStats.ScoreComputations {
									t.Fatalf("%s/%s k=%d r=%d w=%d: %s scored %d, serial scored %d",
										cg.name, candName, k, r, workers, name,
										stats.ScoreComputations, refStats.ScoreComputations)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestEngineConformanceEdgeCases pins the shared precondition behavior:
// k = 1 and r below 1 fail identically everywhere, k = 0 fails on the
// fixed-k engines and selects the parameter-free query on online and
// hybrid (which then agree), r beyond n clamps, and an empty candidate
// subset yields an empty answer rather than an error.
func TestEngineConformanceEdgeCases(t *testing.T) {
	ctx := context.Background()
	g := gen.Fig1Graph()
	engines := conformanceEngines(g)
	pfree, _, err := engines["online"].Search(ctx, Params{R: 5, Workers: 1})
	if err != nil {
		t.Fatalf("online K=0: %v", err)
	}
	for name, s := range engines {
		for _, workers := range conformanceWorkerCounts() {
			res, _, err := s.Search(ctx, Params{R: 5, Workers: workers})
			switch name {
			case "online", "hybrid":
				if err != nil || !reflect.DeepEqual(res, pfree) {
					t.Fatalf("%s w=%d: K=0 answered %+v, %v; want %+v", name, workers, res, err, pfree)
				}
			default:
				if err == nil {
					t.Fatalf("%s w=%d: K=0 accepted, want error", name, workers)
				}
			}
			for _, bad := range []Params{
				{K: 1, R: 5, Workers: workers},
				{K: 3, R: 0, Workers: workers},
				{K: 3, R: -2, Workers: workers},
				{K: 3, R: 1, Candidates: []int32{int32(g.N())}, Workers: workers},
			} {
				if _, _, err := s.Search(ctx, bad); err == nil {
					t.Fatalf("%s w=%d: Params %+v accepted, want error", name, workers, bad)
				}
			}
			// r > n clamps to n for the full range.
			res, _, err = s.Search(ctx, Params{K: 3, R: 10 * g.N(), Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			if len(res.TopR) != g.N() {
				t.Fatalf("%s w=%d: r>n answer size %d, want %d", name, workers, len(res.TopR), g.N())
			}
			// Empty (non-nil) candidate set: nothing to rank.
			res, _, err = s.Search(ctx, Params{K: 3, R: 4, Candidates: []int32{}, Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d empty candidates: %v", name, workers, err)
			}
			if len(res.TopR) != 0 {
				t.Fatalf("%s w=%d: empty candidates answered %v", name, workers, res.TopR)
			}
		}
	}
}

// TestPadAnswerCanonicalOrder is the regression test for the padAnswer
// ordering fix: when fewer than r candidates carry a positive score, the
// zero-score slots must go to the smallest unused vertex IDs, matching
// the online engine byte for byte — even when the pruning engines never
// scored those vertices.
func TestPadAnswerCanonicalOrder(t *testing.T) {
	// A triangle-free star: every score is 0, so the whole answer is
	// zero-score padding.
	g := gen.Star(9)
	engines := conformanceEngines(g)
	want := []VertexScore{{V: 0}, {V: 1}, {V: 2}, {V: 3}}
	// Candidates listed backwards: the answer must still come out in
	// ascending ID order.
	cands := []int32{8, 7, 6, 5, 4, 3, 2, 1, 0}
	for name, s := range engines {
		for _, p := range []Params{
			{K: 3, R: 4},
			{K: 3, R: 4, Candidates: cands},
		} {
			res, _, err := s.Search(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(res.TopR, want) {
				t.Fatalf("%s (cands=%v): answer %v, want %v", name, p.Candidates != nil, res.TopR, want)
			}
		}
	}
}

// TestCanonicalTieBreak pins the tie rule itself: with more equal-score
// vertices than answer slots, the smaller IDs win on every engine,
// whatever order candidates arrive in.
func TestCanonicalTieBreak(t *testing.T) {
	// Two disjoint K4s: all eight vertices have score 1 at k=3.
	b := graph.NewBuilder(8)
	for _, quad := range [][4]int32{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(quad[i], quad[j])
			}
		}
	}
	g := b.Build()
	want := []VertexScore{{V: 0, Score: 1}, {V: 1, Score: 1}, {V: 2, Score: 1}}
	for name, s := range conformanceEngines(g) {
		for _, cands := range [][]int32{nil, {7, 5, 3, 1, 6, 4, 2, 0}} {
			res, _, err := s.Search(context.Background(),
				Params{K: 3, R: 3, Candidates: cands, SkipContexts: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(res.TopR, want) {
				t.Fatalf("%s (cands %v): answer %v, want %v", name, cands, res.TopR, want)
			}
		}
	}
}

// TestShardRange checks the contiguous shard split covers [0, count)
// exactly once for awkward worker/count combinations.
func TestShardRange(t *testing.T) {
	for _, tc := range []struct{ count, workers int }{
		{10, 3}, {3, 10}, {1, 1}, {7, 7}, {100, 16}, {5, 2},
	} {
		covered := 0
		prevHi := 0
		for w := 0; w < tc.workers; w++ {
			lo, hi := shardRange(tc.count, tc.workers, w)
			if lo != prevHi {
				t.Fatalf("count=%d workers=%d shard %d: lo %d, want %d", tc.count, tc.workers, w, lo, prevHi)
			}
			if hi < lo || hi > tc.count {
				t.Fatalf("count=%d workers=%d shard %d: bad range [%d,%d)", tc.count, tc.workers, w, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.count || prevHi != tc.count {
			t.Fatalf("count=%d workers=%d: covered %d ending at %d", tc.count, tc.workers, covered, prevHi)
		}
	}
}
