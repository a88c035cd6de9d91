package core

import (
	"sort"
	"testing"

	"trussdiv/internal/dsu"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

// BenchmarkTSDContexts measures TSDIndex.Contexts — the per-answer cost
// of every TSD query with contexts enabled. Its sort-free grouping
// replaced a map[int32][]int32 keyed by DSU root; the *MapGrouping
// variant below preserves that original implementation so the win stays
// measurable (on the 2k-vertex overlay: ~3x faster, 1 alloc/op against
// 6, and no map iteration whose order needs sorting away).
// BenchmarkGCTContexts measures GCTIndex.Contexts on the same graph: the
// path a prepared server answers /contexts and contexts=true top-r from.

func benchContextsOverlay() *graph.Graph {
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: 2000, Attach: 4, Cliques: 400, MinSize: 4, MaxSize: 9, Seed: 42,
	})
}

func benchContextsGraph() *TSDIndex { return BuildTSDIndex(benchContextsOverlay()) }

func BenchmarkTSDContexts(b *testing.B) {
	idx := benchContextsGraph()
	n := int32(idx.Graph().N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Contexts(int32(i)%n, 3)
	}
}

func BenchmarkGCTContexts(b *testing.B) {
	idx := BuildGCTIndex(benchContextsOverlay())
	n := int32(idx.Graph().N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Contexts(int32(i)%n, 3)
	}
}

// contextsMapGrouping is the pre-refactor implementation of
// TSDIndex.Contexts (map keyed by DSU root), kept verbatim as the
// benchmark baseline.
func contextsMapGrouping(idx *TSDIndex, v int32, k int32) [][]int32 {
	p := idx.prefixLen(v, k)
	if p == 0 {
		return nil
	}
	verts := idx.g.Neighbors(v)
	d := dsu.New(len(verts))
	for _, e := range idx.edges.at(v)[:p] {
		d.Union(e.U, e.W)
	}
	groups := map[int32][]int32{}
	for _, e := range idx.edges.at(v)[:p] {
		for _, lv := range [2]int32{e.U, e.W} {
			r := d.Find(lv)
			members := groups[r]
			if len(members) == 0 || members[len(members)-1] != verts[lv] {
				groups[r] = append(members, verts[lv])
			}
		}
	}
	out := make([][]int32, 0, len(groups))
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		dedup := members[:0]
		for i, m := range members {
			if i > 0 && m == members[i-1] {
				continue
			}
			dedup = append(dedup, m)
		}
		out = append(out, dedup)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func BenchmarkTSDContextsMapGrouping(b *testing.B) {
	idx := benchContextsGraph()
	n := int32(idx.Graph().N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contextsMapGrouping(idx, int32(i)%n, 3)
	}
}

// TestContextsMatchesMapGrouping ties the benchmark baseline to the live
// implementation: both groupings must produce identical output on every
// vertex, so the benchmark comparison stays apples-to-apples.
func TestContextsMatchesMapGrouping(t *testing.T) {
	idx := BuildTSDIndex(gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 8, Seed: 7,
	}))
	for _, k := range []int32{2, 3, 5} {
		for v := int32(0); int(v) < idx.Graph().N(); v++ {
			got := idx.Contexts(v, k)
			want := contextsMapGrouping(idx, v, k)
			if len(got) != len(want) {
				t.Fatalf("v=%d k=%d: %d groups, want %d", v, k, len(got), len(want))
			}
			for i := range got {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("v=%d k=%d group %d: size %d, want %d", v, k, i, len(got[i]), len(want[i]))
				}
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("v=%d k=%d group %d member %d: %d, want %d",
							v, k, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}
