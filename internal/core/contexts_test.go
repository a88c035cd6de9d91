package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"trussdiv/internal/ego"
	"trussdiv/internal/gen"
)

// Social contexts are, by Def. 2, vertex sets of maximal connected
// k-trusses of the ego-network. Structural invariants that must hold for
// every engine, every vertex, every k:
//
//  1. contexts are pairwise disjoint (maximal connected subgraphs of the
//     unique k-truss cannot overlap),
//  2. every context has at least k vertices (the smallest connected
//     k-truss is the k-clique),
//  3. every context member is a neighbor of the queried vertex,
//  4. the number of contexts equals score(v).
func TestContextInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 30, 150, seed+700)
		scorer := NewScorer(g)
		tsdIdx := BuildTSDIndex(g)
		gctIdx := BuildGCTIndex(g)
		for v := int32(0); int(v) < g.N(); v++ {
			nbrs := map[int32]bool{}
			for _, u := range g.Neighbors(v) {
				nbrs[u] = true
			}
			for k := int32(2); k <= 5; k++ {
				for _, contexts := range [][][]int32{
					scorer.Contexts(v, k),
					tsdIdx.Contexts(v, k),
					gctIdx.Contexts(v, k),
				} {
					seen := map[int32]bool{}
					for _, ctx := range contexts {
						if int32(len(ctx)) < k {
							return false // invariant 2
						}
						for _, u := range ctx {
							if seen[u] {
								return false // invariant 1
							}
							seen[u] = true
							if !nbrs[u] {
								return false // invariant 3
							}
						}
					}
					if len(contexts) != scorer.Score(v, k) {
						return false // invariant 4
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Every context must itself satisfy the k-truss definition: the subgraph
// of the ego-network induced by the context's vertices contains a
// spanning connected k-truss. We verify the defining edge-support
// condition directly on the induced subgraph restricted to qualifying
// edges.
func TestContextsAreKTrusses(t *testing.T) {
	g := randomGraph(t, 28, 140, 901)
	scorer := NewScorer(g)
	for v := int32(0); int(v) < g.N(); v++ {
		for k := int32(3); k <= 5; k++ {
			for _, ctx := range scorer.Contexts(v, k) {
				// All context members plus v span the context's edges; the
				// context itself lives inside the ego-network, so check
				// there: induced subgraph of the ego by ctx.
				verts := append([]int32{}, ctx...)
				sub, _ := g.InducedSubgraph(verts)
				// Context vertices must all touch triangles richly enough:
				// the k-truss of sub must span every context vertex.
				supports := sub.Supports()
				// Iteratively peel edges below k-2 support; whatever
				// remains must cover all vertices of ctx and be connected.
				alive := make([]bool, sub.M())
				for i := range alive {
					alive[i] = true
				}
				for changed := true; changed; {
					changed = false
					cur := sub.FilterEdges(func(id int32) bool { return alive[id] })
					supports = cur.Supports()
					for id := 0; id < cur.M(); id++ {
						if supports[id] < k-2 {
							e := cur.Edge(int32(id))
							gid := sub.EdgeID(e.U, e.V)
							if alive[gid] {
								alive[gid] = false
								changed = true
							}
						}
					}
				}
				covered := map[int32]struct{}{}
				for id := int32(0); int(id) < sub.M(); id++ {
					if alive[id] {
						e := sub.Edge(id)
						covered[e.U] = struct{}{}
						covered[e.V] = struct{}{}
					}
				}
				if len(covered) != len(ctx) {
					t.Fatalf("v=%d k=%d: context %v not spanned by its k-truss "+
						"(%d of %d vertices covered)", v, k, ctx, len(covered), len(ctx))
				}
			}
		}
	}
}

// TestScoreAndContextsMatchesContexts pins ScoreAndContexts to the two
// calls it fuses, nil included: a vertex whose ego-network has edges
// but no qualifying k-truss has no contexts, not an empty list.
func TestScoreAndContextsMatchesContexts(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 8, Seed: 7,
	})
	scorer := NewScorer(g)
	edgesButNone := 0
	for v := int32(0); int(v) < g.N(); v++ {
		for _, k := range []int32{3, 5, 8} {
			score, contexts := scorer.ScoreAndContexts(v, k)
			want := scorer.Contexts(v, k)
			if score != scorer.Score(v, k) || !reflect.DeepEqual(contexts, want) {
				t.Fatalf("ScoreAndContexts(%d, %d) = %d, %#v; want %d, %#v",
					v, k, score, contexts, scorer.Score(v, k), want)
			}
			if want == nil && ego.ExtractOne(g, v).G.M() > 0 {
				edgesButNone++
			}
		}
	}
	if edgesButNone == 0 {
		t.Fatal("no ego-network with edges but no contexts: the nil case went unexercised")
	}
}
