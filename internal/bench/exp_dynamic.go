package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"time"

	"trussdiv"
)

// runDynamic measures the mutable-graph write path (paper §5.3 made a
// public API): batches of edge insertions and deletions stream into a
// DB.Apply loop, and each apply's latency — the one patch pass over the
// affected ego-networks plus the snapshot swap — is compared against the
// cost of rebuilding a fresh DB on the mutated graph (the only option the
// frozen API offered). Apply leaves the global truss decomposition cold,
// so the first bound query after each apply rebuilds it; that query is
// timed on its own. After every batch, every (engine, measure) cell of
// the updated DB is asserted to answer exactly like a cold rebuild, so
// the speedup column measures the same answers, faster. Each dataset is
// swept over several batch sizes, so the numbers show whether an apply
// grows with the batch or with the graph. They land in
// BENCH_dynamic.json, tracking the apply-vs-rebuild trajectory from PR to
// PR.

// DynamicDatasetReport is one dataset's apply-vs-rebuild measurement at
// one batch size: the wall times are medians over the update batches, the
// work counts means.
type DynamicDatasetReport struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Batches is the number of update batches applied; BatchEdges the
	// edits per batch (half insertions, rounded down, and the rest
	// deletions).
	Batches    int `json:"batches"`
	BatchEdges int `json:"batch_edges"`
	// ApplyNS is the median DB.Apply wall time per batch; RebuildNS the
	// median cost of Open + Prepare of the same structures on the mutated
	// graph. Neither includes the global truss decomposition.
	ApplyNS   int64 `json:"apply_ns"`
	RebuildNS int64 `json:"rebuild_ns"`
	// FirstBoundNS is the median wall time of the first bound query after
	// each apply, which rebuilds the truss decomposition Apply left cold.
	FirstBoundNS int64 `json:"first_bound_ns"`
	// Repaired is the mean number of ego-network structures rebuilt per
	// apply (the incremental repair's working set).
	Repaired float64 `json:"repaired"`
	// RankingsPatched is the mean number of per-k ranking tables (hybrid
	// plus per-measure) patched in place per batch.
	RankingsPatched float64 `json:"rankings_patched"`
	// Speedup is median rebuild / median apply wall time.
	Speedup float64 `json:"speedup"`
}

// DynamicReport is the schema of BENCH_dynamic.json: one row per dataset
// and batch size, in sweep order.
type DynamicReport struct {
	BatchSizes []int                  `json:"batch_sizes"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Datasets   []DynamicDatasetReport `json:"datasets"`
}

// DynamicReportFile is the artifact runDynamic writes (into cfg.OutDir,
// default the working directory).
const DynamicReportFile = "BENCH_dynamic.json"

// runDynamic streams update batches of each swept size through DB.Apply,
// times each against a cold rebuild and the first bound query after it,
// verifies every (engine, measure) cell agrees with the rebuild, and
// emits both a table and BENCH_dynamic.json. cfg.Updates, when set,
// replaces the sweep with that one batch size.
func runDynamic(w io.Writer, cfg Config) error {
	ctx := context.Background()
	sizes := []int{1, 16, 256} // a single edit, the serving write batch, a bulk load
	if cfg.Updates > 0 {
		sizes = []int{cfg.Updates}
	}
	// One apply of a small batch takes milliseconds, so a few samples
	// move by tens of percent from run to run; the medians need more.
	batches := 9
	if cfg.Quick {
		batches = 15
	}
	report := DynamicReport{BatchSizes: sizes, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	t := &Table{
		Title:   fmt.Sprintf("Incremental Apply vs cold rebuild, batch sizes %v (extension)", sizes),
		Headers: []string{"Network", "batch", "apply", "rebuild", "repaired", "first bound", "speedup"},
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		db, err := trussdiv.Open(g)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// Ready everything Apply repairs incrementally: the ego-network
		// indexes and every measure's ranking table. The rebuild side
		// prepares the same set, so the speedup prices repair-vs-rebuild
		// for the rankings too.
		prepared := []string{"tsd", "gct", "hybrid", "comp", "kcore"}
		if err := db.Prepare(ctx, prepared...); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rng := rand.New(rand.NewSource(cfg.seed()))
		for _, batchEdges := range sizes {
			row, err := dynamicRow(ctx, db, name, prepared, rng, batches, batchEdges)
			if err != nil {
				return err
			}
			report.Datasets = append(report.Datasets, row)
			t.AddRow(name, batchEdges, time.Duration(row.ApplyNS), time.Duration(row.RebuildNS),
				fmt.Sprintf("%.0f", row.Repaired), time.Duration(row.FirstBoundNS),
				fmt.Sprintf("%.2fx", row.Speedup))
		}
	}
	t.Fprint(w)
	path, err := writeArtifact(cfg, DynamicReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}

// dynamicRow applies batches update batches of batchEdges edits each to
// db, continuing its edit stream, and measures them against rebuilds,
// reporting the median of each wall time.
func dynamicRow(ctx context.Context, db *trussdiv.DB, name string, prepared []string, rng *rand.Rand,
	batches, batchEdges int) (DynamicDatasetReport, error) {
	const k, r = int32(4), 100
	g := db.Graph()
	var applyNS, rebuildNS, firstBoundNS []time.Duration
	var repairedTotal, rankingsTotal int
	for batch := 0; batch < batches; batch++ {
		u := RandomUpdates(db.Graph(), rng, batchEdges/2, batchEdges-batchEdges/2)
		var epoch trussdiv.Epoch
		var applyErr error
		// Collect the previous rebuild's garbage first, so that its
		// collection does not land inside the timed Apply.
		runtime.GC()
		applyNS = append(applyNS, Timed(func() {
			epoch, applyErr = db.Apply(ctx, u)
		}))
		if applyErr != nil {
			return DynamicDatasetReport{}, fmt.Errorf("%s: apply batch %d: %w", name, batch, applyErr)
		}
		snap := db.Snapshot()
		if snap.Epoch() != epoch {
			return DynamicDatasetReport{}, fmt.Errorf("%s: snapshot epoch %d, apply returned %d", name, snap.Epoch(), epoch)
		}
		if st := snap.ApplyStats(); st != nil {
			repairedTotal += st.Affected
			rankingsTotal += st.RankingsPatched
		}
		var boundErr error
		firstBoundNS = append(firstBoundNS, Timed(func() {
			_, _, boundErr = db.TopR(ctx, trussdiv.NewQuery(k, r, trussdiv.WithContexts(), trussdiv.ViaEngine("bound")))
		}))
		if boundErr != nil {
			return DynamicDatasetReport{}, fmt.Errorf("%s: first bound query after batch %d: %w", name, batch, boundErr)
		}

		var rebuilt *trussdiv.DB
		var rebuildErr error
		rebuildNS = append(rebuildNS, Timed(func() {
			rebuilt, rebuildErr = trussdiv.Open(db.Graph())
			if rebuildErr == nil {
				rebuildErr = rebuilt.Prepare(ctx, prepared...)
			}
		}))
		if rebuildErr != nil {
			return DynamicDatasetReport{}, fmt.Errorf("%s: rebuild batch %d: %w", name, batch, rebuildErr)
		}
		// The correctness bar: every (engine, measure) cell of the
		// incrementally maintained DB must answer — ranked answers and
		// recovered social contexts both — exactly like the cold rebuild.
		for _, mi := range db.Measures() {
			for _, engine := range mi.Engines {
				kq := k
				if engine == "pfree" {
					kq = 0 // the parameter-free engine takes no threshold
				}
				q := trussdiv.NewQuery(kq, r, trussdiv.WithContexts(), trussdiv.ViaEngine(engine),
					trussdiv.WithMeasure(mi.Measure))
				cell := engine + "/" + string(mi.Measure)
				appliedRes, _, err := db.TopR(ctx, q)
				if err != nil {
					return DynamicDatasetReport{}, fmt.Errorf("%s/%s: applied query: %w", name, cell, err)
				}
				rebuiltRes, _, err := rebuilt.TopR(ctx, q)
				if err != nil {
					return DynamicDatasetReport{}, fmt.Errorf("%s/%s: rebuilt query: %w", name, cell, err)
				}
				if err := sameAnswer(appliedRes, rebuiltRes); err != nil {
					return DynamicDatasetReport{}, fmt.Errorf("%s/%s: incremental apply diverged from rebuild: %w",
						name, cell, err)
				}
				if !reflect.DeepEqual(appliedRes.Contexts, rebuiltRes.Contexts) {
					return DynamicDatasetReport{}, fmt.Errorf("%s/%s: incremental apply's contexts diverged from rebuild",
						name, cell)
				}
			}
		}
	}
	apply, rebuild := medianDuration(applyNS), medianDuration(rebuildNS)
	return DynamicDatasetReport{
		Name:            name,
		Vertices:        g.N(),
		Edges:           g.M(),
		Batches:         batches,
		BatchEdges:      batchEdges,
		ApplyNS:         apply.Nanoseconds(),
		RebuildNS:       rebuild.Nanoseconds(),
		FirstBoundNS:    medianDuration(firstBoundNS).Nanoseconds(),
		Repaired:        float64(repairedTotal) / float64(batches),
		RankingsPatched: float64(rankingsTotal) / float64(batches),
		Speedup:         float64(rebuild) / float64(max(apply, time.Nanosecond)),
	}, nil
}

// medianDuration returns the median of ds (the upper one of an even
// count), sorting ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// RandomUpdates picks a valid update batch for g: insertions among absent
// vertex pairs, deletions among present edges, no overlaps. It is shared
// with the root package's apply tests — one copy of the sampling logic.
func RandomUpdates(g *trussdiv.Graph, rng *rand.Rand, nIns, nDel int) trussdiv.Updates {
	n := int32(g.N())
	var u trussdiv.Updates
	chosen := map[trussdiv.Edge]bool{}
	for len(u.Insert) < nIns {
		a, b := rng.Int31n(n), rng.Int31n(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := trussdiv.Edge{U: a, V: b}
		if g.HasEdge(a, b) || chosen[e] {
			continue
		}
		chosen[e] = true
		u.Insert = append(u.Insert, e)
	}
	edges := g.Edges()
	for len(u.Delete) < nDel && len(u.Delete) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if chosen[e] {
			continue
		}
		chosen[e] = true
		u.Delete = append(u.Delete, e)
	}
	return u
}
