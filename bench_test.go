// Package trussdiv's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§7) under `go test -bench`. Each
// benchmark wraps one experiment of internal/bench in quick mode (small
// datasets, reduced Monte-Carlo runs); run `go run ./cmd/tsdbench` for the
// full-scale versions and human-readable tables.
//
// Ablation benchmarks at the bottom measure the design choices DESIGN.md
// calls out: bitmap vs merge peeling, one-shot vs per-vertex ego
// extraction, sparsification, and the pruning bounds.
package trussdiv_test

import (
	"io"
	"testing"

	"trussdiv/internal/bench"
	"trussdiv/internal/cascade"
	"trussdiv/internal/core"
	"trussdiv/internal/ego"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

var quickCfg = bench.Config{Quick: true, Seed: 1, MCRuns: 120}

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, quickCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact ---

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkFig10(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkCaseStudy(b *testing.B) { benchExperiment(b, "exp10") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "table5") }

// --- Micro-benchmarks of the individual engines (one dataset) ---

func benchGraph() *graph.Graph { return bench.MustLoad("wiki-sim") }

func BenchmarkOnlineSearch(b *testing.B) {
	g := benchGraph()
	s := core.NewOnline(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopR(3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundSearch(b *testing.B) {
	g := benchGraph()
	s := core.NewBound(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopR(3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDSearch(b *testing.B) {
	s := core.NewTSD(core.BuildTSDIndex(benchGraph()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopR(3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGCTSearch(b *testing.B) {
	s := core.NewGCT(core.BuildGCTIndex(benchGraph()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopR(3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDIndexBuild(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildTSDIndex(g)
	}
}

func BenchmarkGCTIndexBuild(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildGCTIndex(g)
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationPeelingMerge vs ...Bitmap: the two support-counting
// modes of truss.Scratch's one peel, merged adjacency lists against
// §6.2's bit rows, over every ego-network of the benchmark graph on one
// warm scratch.
func BenchmarkAblationPeelingMerge(b *testing.B) {
	g := benchGraph()
	all := ego.ExtractAll(g)
	nets := materialize(g, all)
	var ts truss.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, net := range nets {
			ts.DecomposeInto(net.G)
		}
	}
}

func BenchmarkAblationPeelingBitmap(b *testing.B) {
	g := benchGraph()
	all := ego.ExtractAll(g)
	nets := materialize(g, all)
	var ts truss.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, net := range nets {
			ts.DecomposeBitmapInto(net.G)
		}
	}
}

func materialize(g *graph.Graph, all *ego.All) []*ego.Network {
	var nets []*ego.Network
	for v := int32(0); int(v) < g.N(); v++ {
		if all.EdgeCount(v) > 0 {
			nets = append(nets, all.Network(v))
		}
	}
	return nets
}

// BenchmarkAblationEgoPerVertex vs ...OneShot: the Table 4 contrast as a
// tight loop — per-vertex local triangle listing vs one-shot global
// listing for extracting every ego-network, each into one reused
// scratch as the scans and Table 4 run them.
func BenchmarkAblationEgoPerVertex(b *testing.B) {
	g := benchGraph()
	var s ego.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); int(v) < g.N(); v++ {
			ego.ExtractOneInto(&s, g, v)
		}
	}
}

func BenchmarkAblationEgoOneShot(b *testing.B) {
	g := benchGraph()
	var s ego.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := ego.ExtractAll(g)
		for v := int32(0); int(v) < g.N(); v++ {
			if all.EdgeCount(v) > 0 {
				all.NetworkInto(&s, v)
			}
		}
	}
}

// BenchmarkAblationSparsify measures Property-1 sparsification itself:
// the cost of the global truss decomposition buy-in.
func BenchmarkAblationSparsify(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truss.KTruss(g, truss.Decompose(g), 4+1)
	}
}

// BenchmarkAblationBoundsLemma2 vs ...TSD: pruning power is reported as
// search space in Fig. 9; here we measure the bound computation cost for
// all vertices.
func BenchmarkAblationBoundsLemma2(b *testing.B) {
	g := benchGraph()
	mv := g.TrianglesPerVertex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); int(v) < g.N(); v++ {
			core.UpperBound(g.Degree(v), mv[v], 4)
		}
	}
}

func BenchmarkAblationBoundsTSD(b *testing.B) {
	idx := core.BuildTSDIndex(benchGraph())
	g := idx.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); int(v) < g.N(); v++ {
			idx.ScoreUpperBound(v, 4)
		}
	}
}

// BenchmarkScoreSingleVertex measures Algorithm 2 on the highest-degree
// vertex (the worst single ego-network).
func BenchmarkScoreSingleVertex(b *testing.B) {
	g := benchGraph()
	scorer := core.NewScorer(g)
	hub := int32(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer.Score(hub, 4)
	}
}

// BenchmarkTrussDecomposition measures global truss decomposition, the
// substrate both sparsification and Table 1 rely on.
func BenchmarkTrussDecomposition(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truss.Decompose(g)
	}
}

// BenchmarkCascadeMonteCarlo measures the effectiveness substrate.
func BenchmarkCascadeMonteCarlo(b *testing.B) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 4000, Attach: 4, Cliques: 600, MinSize: 4, MaxSize: 10, Seed: 9,
	})
	ic := cascade.NewIC(g, 0.05)
	seeds := []int32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.MonteCarlo(seeds, 50, 3)
	}
}

// --- Extension benchmarks: parallel construction and dynamic updates ---

func BenchmarkTSDIndexBuildParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildAll(g, core.BuildTargets{TSD: true}, 0)
	}
}

func BenchmarkGCTIndexBuildParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildAll(g, core.BuildTargets{GCT: true}, 0)
	}
}

// BenchmarkDynamicUpdate measures the incremental repair of a 10-edge
// batch — the graph edit plus one PatchAll pass over the affected
// ego-networks — against BenchmarkTSDIndexBuild (the full-rebuild
// alternative).
func BenchmarkDynamicUpdate(b *testing.B) {
	g := benchGraph()
	targets := core.BuildTargets{TSD: true}
	base := core.BuildAll(g, targets, 1)
	var ins []graph.Edge
	for u := int32(0); len(ins) < 10; u++ {
		v := u + int32(g.N()/2)
		if int(v) < g.N() && !g.HasEdge(u, v) {
			ins = append(ins, graph.Edge{U: u, V: v})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newG, err := core.ApplyEdits(g, ins, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Copy-on-write: base is never modified, so every iteration
		// repairs the same batch.
		core.PatchAll(newG, base, targets, core.AffectedVertices(g, newG, ins, nil), 1, nil)
	}
}
