//go:build !race

package core

import (
	"math/rand"
	"runtime"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

// applyEditsAllocs is the fixed allocation count of one ApplyEdits:
//  1. the checked insertion list,
//  2. the checked deletion list,
//  3. graph.Edit's edit arcs (two per edit),
//  4. its offsets (n+1 int64),
//  5. its adjacency (2m int32),
//  6. its Graph header.
//
// The edge IDs and the edge list are not among them: the edited graph
// lays them out on its first per-edge access.
const applyEditsAllocs = 6

// TestApplyEditsAllocsIndependentOfM pins the CSR splice's allocations:
// one 8+8 batch makes the same small, fixed number on a small and on a
// ten times larger graph, so no per-edge or per-vertex allocation creeps
// back into the graph edit.
func TestApplyEditsAllocsIndependentOfM(t *testing.T) {
	for _, n := range []int{500, 5000} {
		g := gen.CommunityOverlay(gen.OverlayConfig{
			N: n, Attach: 3, Cliques: n / 5, MinSize: 4, MaxSize: 8, Seed: 5,
		})
		ins, del := randomEdits(t, g, 8, 8, int64(n))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ApplyEdits(g, ins, del); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != applyEditsAllocs {
			t.Errorf("n = %d, m = %d: ApplyEdits of an 8+8 batch makes %v allocations, want %d",
				n, g.M(), allocs, applyEditsAllocs)
		}
	}
}

// TestApplyEditsAllocsBytesWithinAdjacency pins what ApplyEdits
// allocates: one 8+8 batch takes less than the offsets (8(n+1) bytes) and
// the adjacency (8m bytes) plus a per-batch constant — the small edit
// lists and the Graph header, and the rounding of the two large arrays up
// to whole 8 KiB heap pages. No other per-edge array (edge IDs, edge
// list, an old→new ID table) fits in that: on the larger graph each would
// add at least 100 KB.
func TestApplyEditsAllocsBytesWithinAdjacency(t *testing.T) {
	const perBatch = 16<<10 + 1<<10
	for _, n := range []int{500, 5000} {
		g := gen.CommunityOverlay(gen.OverlayConfig{
			N: n, Attach: 3, Cliques: n / 5, MinSize: 4, MaxSize: 8, Seed: 5,
		})
		ins, del := randomEdits(t, g, 8, 8, int64(n))
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ApplyEdits(g, ins, del); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(8*(n+1) + 8*g.M() + perBatch); least >= limit {
			t.Errorf("n = %d, m = %d: ApplyEdits of an 8+8 batch allocates %d bytes, want < %d",
				n, g.M(), least, limit)
		}
	}
}

// TestNormalizedCandidatesAllocs pins the candidate dedup's memory: a
// warm normalized call over 3000 distinct candidates allocates the two
// halves of its radix-sorted copy (24 KB) and nothing per candidate, where
// a map over the candidates took 38 KB.
func TestNormalizedCandidatesAllocs(t *testing.T) {
	const n, count = 50000, 3000
	const limit = 2*4*count + 1<<10
	cands := rand.New(rand.NewSource(3)).Perm(n)[:count]
	p := Params{K: 3, R: 10, Candidates: make([]int32, count)}
	for i, v := range cands {
		p.Candidates[i] = int32(v)
	}
	normalize := func() {
		if _, err := p.normalized(n); err != nil {
			t.Fatal(err)
		}
	}
	normalize()
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		normalize()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= limit {
		t.Errorf("normalized over %d candidates allocates %d bytes, want < %d", count, least, limit)
	}
}

// TestPatchAllAllocsIndependentOfN pins PatchAll's copy-on-write: re-deriving
// the TSD and GCT entries of one fixed 8+8 batch's affected vertices
// allocates within 1.5x the bytes on a graph and on the same graph padded
// with ten times as many isolated vertices. PatchAll copies the page tables
// and the pages holding an affected vertex, never all n entries; the page
// tables are what grows with n (1.08x here, where a whole-array copy
// measured 5.2x). The pass reuses its scratch from the previous batch as a
// DB does, so the worker's ego position marker (an int32 per vertex) is
// not allocated again: with a fresh scratch per pass it read 1.17x.
func TestPatchAllAllocsIndependentOfN(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 1000, Attach: 4, Cliques: 300, MinSize: 5, MaxSize: 10, Seed: 11,
	})
	ins, del := randomEdits(t, g, 8, 8, 12)
	targets := BuildTargets{TSD: true, GCT: true}
	patchBytes := func(n int) uint64 {
		padded, err := graph.FromEdges(n, g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		newG, err := ApplyEdits(padded, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		affected := AffectedVertices(padded, newG, ins, del)
		old := BuildAll(padded, targets, 1)
		var scratch PassScratch // as a DB keeps it from one Apply to the next
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			PatchAll(newG, old, targets, affected, 1, &scratch)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := patchBytes(g.N()), patchBytes(11*g.N())
	if 2*large > 3*small {
		t.Errorf("PatchAll of an 8+8 batch allocates %d bytes on %d vertices, %d bytes with %d isolated ones added; want within 1.5x",
			small, g.N(), large, 10*g.N())
	}
}

// TestSpliceAllocsIndependentOfN pins the ranking splice's copy-on-write:
// splicing one fixed 8+8 batch's fresh scores into the three measures'
// tables, the parameter-free row 0 of each included, allocates within 1.5x the bytes on a graph and on that graph
// padded with nine disjoint copies of itself, whose rankings are ten
// times as long. The splice copies the chunk tables of the rankings the
// batch moves and the chunks it touches, never whole rankings; a splice
// that copied every changed ranking in full measured about 10x here.
// (Isolated vertices would not do as padding: they score nowhere, so the
// rankings would not grow.)
func TestSpliceAllocsIndependentOfN(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 1000, Attach: 4, Cliques: 300, MinSize: 5, MaxSize: 10, Seed: 11,
	})
	ins, del := randomEdits(t, g, 8, 8, 12)
	targets := BuildTargets{Measures: AllMeasures()}
	spliceBytes := func(copies int) uint64 {
		var edges []graph.Edge
		for c := range copies {
			off := int32(c * g.N())
			for _, e := range g.Edges() {
				edges = append(edges, graph.Edge{U: e.U + off, V: e.V + off})
			}
		}
		padded, err := graph.FromEdges(copies*g.N(), edges)
		if err != nil {
			t.Fatal(err)
		}
		newG, err := ApplyEdits(padded, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		affected := AffectedVertices(padded, newG, ins, del)
		old := BuildAll(padded, targets, 1).MeasureRanks
		p := newEgoPass(newG, targets, len(affected))
		p.run(len(affected), 1, nil, func(slot int) int32 { return affected[slot] })
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for m, table := range old {
				spliceRankings(table, affected, p.vecs[m])
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := spliceBytes(1), spliceBytes(10)
	t.Logf("splice of an 8+8 batch: %d bytes on %d vertices, %d bytes with nine copies added", small, g.N(), large)
	if 2*large > 3*small {
		t.Errorf("ranking splice of an 8+8 batch allocates %d bytes on %d vertices, %d bytes with nine disjoint copies added; want within 1.5x",
			small, g.N(), large)
	}
}
