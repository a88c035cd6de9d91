package bench

import (
	"fmt"
	"io"
	"time"

	"trussdiv/internal/baseline"
	"trussdiv/internal/core"
	"trussdiv/internal/ego"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// runTable1 reproduces Table 1: |V|, |E|, d_max, τ*_G, τ*_ego, T.
func runTable1(w io.Writer, cfg Config) error {
	t := &Table{
		Title:   "Network statistics (paper Table 1)",
		Headers: []string{"Name", "stands for", "|V|", "|E|", "dmax", "tau*_G", "tau*_ego", "T"},
	}
	for _, d := range Datasets(cfg.tier()) {
		g := MustLoad(d.Name)
		tau := truss.Decompose(g)
		tauG := truss.MaxTrussness(tau)
		tauEgo := maxEgoTrussness(g)
		t.AddRow(d.Name, d.PaperName, g.N(), g.M(), g.MaxDegree(), tauG, tauEgo, g.CountTriangles())
	}
	t.Fprint(w)
	return nil
}

// maxEgoTrussness computes τ*_ego = max over vertices of the maximum edge
// trussness inside the ego-network.
func maxEgoTrussness(g *graph.Graph) int32 {
	all := ego.ExtractAll(g)
	var es ego.Scratch
	var ts truss.Scratch
	best := int32(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if all.EdgeCount(v) == 0 {
			continue
		}
		net := all.NetworkInto(&es, v)
		if t := truss.MaxTrussness(ts.DecomposeBitmapInto(net.G)); t > best {
			best = t
		}
	}
	return best
}

// runFig3 reproduces Figure 3: the number of edges per trussness value on
// the four small networks; the tail should decay like a power law.
func runFig3(w io.Writer, cfg Config) error {
	for _, name := range []string{"wiki-sim", "enron-sim", "epinions-sim", "gowalla-sim"} {
		g := MustLoad(name)
		hist := truss.Distribution(truss.Decompose(g))
		t := &Table{
			Title:   fmt.Sprintf("Edge trussness distribution: %s (paper Fig. 3)", name),
			Headers: []string{"trussness", "#edges"},
		}
		for tv := 2; tv < len(hist); tv++ {
			if hist[tv] > 0 {
				t.AddRow(tv, hist[tv])
			}
		}
		t.Fprint(w)
	}
	return nil
}

// runTable2 reproduces Table 2: running time and search space of baseline,
// bound and TSD at k=3, r=100, with speedup ratio Rt and pruning ratio Rs.
func runTable2(w io.Writer, cfg Config) error {
	const k, r = 3, 100
	t := &Table{
		Title: "Runtime and search space, k=3 r=100 (paper Table 2)",
		Headers: []string{"Network", "baseline", "bound", "TSD", "Rt",
			"sp.base", "sp.bound", "sp.TSD", "Rs"},
	}
	for _, d := range Datasets(cfg.tier()) {
		g := MustLoad(d.Name)
		var baseStats, boundStats, tsdStats *core.Stats
		baseTime := Timed(func() { _, baseStats, _ = core.NewOnline(g).TopR(k, r) })
		boundTime := Timed(func() { _, boundStats, _ = core.NewBound(g).TopR(k, r) })
		idx := core.BuildTSDIndex(g) // index construction excluded, as in the paper
		tsdTime := Timed(func() { _, tsdStats, _ = core.NewTSD(idx).TopR(k, r) })
		rt := float64(baseTime) / float64(tsdTime)
		rs := float64(baseStats.ScoreComputations) / float64(max(tsdStats.ScoreComputations, 1))
		t.AddRow(d.Name, baseTime, boundTime, tsdTime, fmt.Sprintf("%.0f", rt),
			baseStats.ScoreComputations, boundStats.ScoreComputations,
			tsdStats.ScoreComputations, fmt.Sprintf("%.1f", rs))
	}
	t.Fprint(w)
	return nil
}

// runFig8 reproduces Figure 8: runtime of baseline, bound, TSD, GCT,
// Comp-Div and Core-Div for k in 2..6 (r=100).
func runFig8(w io.Writer, cfg Config) error {
	const r = 100
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		tsdIdx := core.BuildTSDIndex(g)
		gctIdx := core.BuildGCTIndex(g)
		t := &Table{
			Title:   fmt.Sprintf("Runtime vs k on %s, r=%d (paper Fig. 8)", name, r),
			Headers: []string{"k", "baseline", "bound", "TSD", "GCT", "Comp-Div", "Core-Div"},
		}
		for k := int32(2); k <= 6; k++ {
			baseTime := Timed(func() { _, _, _ = core.NewOnline(g).TopR(k, r) })
			boundTime := Timed(func() { _, _, _ = core.NewBound(g).TopR(k, r) })
			tsdTime := Timed(func() { _, _, _ = core.NewTSD(tsdIdx).TopR(k, r) })
			gctTime := Timed(func() { _, _, _ = core.NewGCT(gctIdx).TopR(k, r) })
			compTime := Timed(func() { _, _ = baseline.TopR(baseline.NewCompDiv(g), g.N(), k, r) })
			coreTime := Timed(func() { _, _ = baseline.TopR(baseline.NewCoreDiv(g), g.N(), k, r) })
			t.AddRow(k, baseTime, boundTime, tsdTime, gctTime, compTime, coreTime)
		}
		t.Fprint(w)
	}
	return nil
}

// runFig9 reproduces Figure 9: search space (score computations) of
// baseline, bound and TSD for k in 2..6.
func runFig9(w io.Writer, cfg Config) error {
	const r = 100
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		tsdIdx := core.BuildTSDIndex(g)
		t := &Table{
			Title:   fmt.Sprintf("Search space vs k on %s, r=%d (paper Fig. 9)", name, r),
			Headers: []string{"k", "baseline", "bound", "TSD"},
		}
		for k := int32(2); k <= 6; k++ {
			_, boundStats, err := core.NewBound(g).TopR(k, r)
			if err != nil {
				return err
			}
			_, tsdStats, err := core.NewTSD(tsdIdx).TopR(k, r)
			if err != nil {
				return err
			}
			t.AddRow(k, g.N(), boundStats.ScoreComputations, tsdStats.ScoreComputations)
		}
		t.Fprint(w)
	}
	return nil
}

// runTable3 reproduces Table 3: index size (in memory, the figure /stats
// reports), construction time and query time (k=3, r=100) for TSD vs GCT.
func runTable3(w io.Writer, cfg Config) error {
	const k, r = 3, 100
	t := &Table{
		Title: "Indexing comparison (paper Table 3)",
		Headers: []string{"Network", "graph", "TSD in-memory", "GCT in-memory",
			"TSD build", "GCT build", "TSD query", "GCT query"},
	}
	for _, d := range Datasets(cfg.tier()) {
		g := MustLoad(d.Name)
		var tsdIdx *core.TSDIndex
		var gctIdx *core.GCTIndex
		tsdBuild := Timed(func() { tsdIdx = core.BuildTSDIndex(g) })
		gctBuild := Timed(func() { gctIdx = core.BuildGCTIndex(g) })
		tsdQuery := Timed(func() { _, _, _ = core.NewTSD(tsdIdx).TopR(k, r) })
		gctQuery := Timed(func() { _, _, _ = core.NewGCT(gctIdx).TopR(k, r) })
		t.AddRow(d.Name,
			FormatBytes(int64(g.M())*8), // binary edge list
			FormatBytes(tsdIdx.SizeBytes()),
			FormatBytes(gctIdx.SizeBytes()),
			tsdBuild, gctBuild, tsdQuery, gctQuery)
	}
	t.Fprint(w)
	return nil
}

// runTable4 reproduces Table 4: time spent in ego-network extraction and
// in ego-network truss decomposition by the TSD pipeline (per-vertex
// extraction, merge-based peeling) vs the GCT pipeline (one-shot global
// extraction, bitmap peeling).
func runTable4(w io.Writer, cfg Config) error {
	t := &Table{
		Title: "Ego-network extraction / decomposition time (paper Table 4)",
		Headers: []string{"Network", "TSD extract", "GCT extract",
			"TSD decompose", "GCT decompose"},
	}
	for _, d := range Datasets(cfg.tier()) {
		g := MustLoad(d.Name)
		n := int32(g.N())

		// TSD pipeline: per-vertex local triangle listing + merge peeling,
		// the kernels every scan, build and patch runs.
		var es ego.Scratch
		var ts truss.Scratch
		var tsdExtract, tsdDecompose time.Duration
		for v := int32(0); v < n; v++ {
			start := time.Now()
			net := ego.ExtractOneInto(&es, g, v)
			tsdExtract += time.Since(start)
			if net.G.M() == 0 {
				continue
			}
			start = time.Now()
			ts.DecomposeInto(net.G)
			tsdDecompose += time.Since(start)
		}

		// GCT pipeline: one-shot global listing + bitmap peeling.
		var gctExtract, gctDecompose time.Duration
		var all *ego.All
		gctExtract = Timed(func() { all = ego.ExtractAll(g) })
		for v := int32(0); v < n; v++ {
			if all.EdgeCount(v) == 0 {
				continue
			}
			start := time.Now()
			net := all.NetworkInto(&es, v)
			gctExtract += time.Since(start)
			start = time.Now()
			ts.DecomposeBitmapInto(net.G)
			gctDecompose += time.Since(start)
		}
		t.AddRow(d.Name, tsdExtract, gctExtract, tsdDecompose, gctDecompose)
	}
	t.Fprint(w)
	return nil
}

// runFig10 reproduces Figure 10: TSD query time varying k (3..5) and r
// (50..300).
func runFig10(w io.Writer, cfg Config) error {
	names := cfg.perfDatasets()
	for _, name := range names {
		g := MustLoad(name)
		idx := core.BuildTSDIndex(g)
		searcher := core.NewTSD(idx)
		t := &Table{
			Title:   fmt.Sprintf("TSD runtime varying k and r on %s (paper Fig. 10)", name),
			Headers: []string{"r", "k=3", "k=4", "k=5"},
		}
		for _, r := range []int{50, 100, 150, 200, 250, 300} {
			row := []any{r}
			for k := int32(3); k <= 5; k++ {
				row = append(row, Timed(func() { _, _, _ = searcher.TopR(k, r) }))
			}
			t.AddRow(row...)
		}
		t.Fprint(w)
	}
	return nil
}

// runFig11 reproduces Figure 11: Hybrid vs GCT query time as r grows
// (k=3). Hybrid reads precomputed answers but recovers contexts online.
func runFig11(w io.Writer, cfg Config) error {
	const k = 3
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		gct := core.NewGCT(core.BuildGCTIndex(g))
		hybrid := hybridSearcher(g)
		t := &Table{
			Title:   fmt.Sprintf("Hybrid vs GCT varying r on %s, k=%d (paper Fig. 11)", name, k),
			Headers: []string{"r", "Hybrid", "GCT"},
		}
		for _, r := range []int{1, 60, 120, 180, 240, 300} {
			hTime := Timed(func() { _, _, _ = hybrid.TopR(k, r) })
			gTime := Timed(func() { _, _, _ = gct.TopR(k, r) })
			t.AddRow(r, hTime, gTime)
		}
		t.Fprint(w)
	}
	return nil
}

// hybridSearcher builds the paper's Hybrid competitor of Exp-4 over g: by
// Lemma 3 its per-k rankings are the truss row of the per-measure ranking
// tables, built in one BuildAll pass.
func hybridSearcher(g *graph.Graph) *core.Ranked {
	p := core.BuildAll(g, core.BuildTargets{Measures: []core.Measure{core.MeasureTruss}}, 0)
	return core.NewRanked(core.NewScorer(g), p.MeasureRanks[core.MeasureTruss])
}

// runFig12 reproduces Figure 12: TSD-index construction time and TSD query
// time on synthetic power-law graphs with |E| = 5|V| as |V| grows.
func runFig12(w io.Writer, cfg Config) error {
	sizes := []int{50000, 100000, 200000, 400000}
	if cfg.Quick {
		sizes = []int{20000, 40000, 80000}
	}
	t := &Table{
		Title:   "Scalability on power-law graphs, |E|=5|V| (paper Fig. 12)",
		Headers: []string{"|V|", "|E|", "index build", "TSD query (k=3,r=100)"},
	}
	for _, n := range sizes {
		g := gen.BarabasiAlbert(n, 5, 1000+int64(n))
		var idx *core.TSDIndex
		build := Timed(func() { idx = core.BuildTSDIndex(g) })
		query := Timed(func() { _, _, _ = core.NewTSD(idx).TopR(3, 100) })
		t.AddRow(n, g.M(), build, query)
	}
	t.Fprint(w)
	return nil
}
