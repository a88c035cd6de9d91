package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"trussdiv"
)

// runDynamic measures the mutable-graph write path (paper §5.3 made a
// public API): batches of edge insertions and deletions stream into a
// DB.Apply loop, and each apply's latency — incremental TSD/GCT repair
// plus the snapshot swap — is compared against the cost of rebuilding a
// fresh DB on the mutated graph (the only option the frozen API offered).
// After every batch, all five engines of the updated DB are asserted to
// answer exactly like a cold rebuild, so the speedup column measures the
// same answers, faster. Each dataset is swept over several batch sizes,
// so the numbers show whether an apply grows with the batch or with the
// graph. They land in BENCH_dynamic.json, tracking the apply-vs-rebuild
// trajectory from PR to PR.

// DynamicDatasetReport is one dataset's apply-vs-rebuild measurement at
// one batch size, averaged over the update batches.
type DynamicDatasetReport struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Batches is the number of update batches applied; BatchEdges the
	// edits per batch (half insertions, rounded down, and the rest
	// deletions).
	Batches    int `json:"batches"`
	BatchEdges int `json:"batch_edges"`
	// ApplyNS is the mean DB.Apply wall time per batch; RebuildNS the
	// mean cost of Open + Prepare(tsd, gct) on the mutated graph.
	ApplyNS   int64 `json:"apply_ns"`
	RebuildNS int64 `json:"rebuild_ns"`
	// Repaired is the mean number of ego-network structures rebuilt per
	// apply (the incremental repair's working set).
	Repaired float64 `json:"repaired"`
	// TrussRepairs counts the batches whose global truss decomposition was
	// repaired in place (vs falling back to a rebuild); TrussRegion is the
	// mean number of edges the repair re-derived per repaired batch — the
	// arXiv:1806.05523 locality bound realized against |E|.
	TrussRepairs int     `json:"truss_repairs"`
	TrussRegion  float64 `json:"truss_region"`
	// RankingsPatched is the mean number of per-k ranking tables (hybrid
	// plus per-measure) patched in place per batch.
	RankingsPatched float64 `json:"rankings_patched"`
	// Speedup is rebuild / apply wall time.
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
// times each against a cold rebuild, verifies all five engines agree with
// the rebuild, and emits both a table and BENCH_dynamic.json. cfg.Updates,
// when set, replaces the sweep with that one batch size.
func runDynamic(w io.Writer, cfg Config) error {
	ctx := context.Background()
	sizes := []int{1, 16, 256} // a single edit, the serving write batch, a bulk load
	if cfg.Updates > 0 {
		sizes = []int{cfg.Updates}
	}
	batches := 5
	if cfg.Quick {
		batches = 3
	}
	report := DynamicReport{BatchSizes: sizes, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	t := &Table{
		Title:   fmt.Sprintf("Incremental Apply vs cold rebuild, batch sizes %v (extension)", sizes),
		Headers: []string{"Network", "batch", "apply", "rebuild", "repaired", "truss repair", "speedup"},
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		db, err := trussdiv.Open(g)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// Ready everything Apply now repairs incrementally: the ego-network
		// indexes, the truss decomposition behind hybrid's rankings, and
		// the per-measure rankings. The rebuild side prepares the same set,
		// so the speedup prices repair-vs-rebuild for truss+rankings too.
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
				fmt.Sprintf("%.0f", row.Repaired),
				fmt.Sprintf("%d/%d (%.0f edges)", row.TrussRepairs, batches, row.TrussRegion),
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
// db, continuing its edit stream, and measures them against rebuilds.
func dynamicRow(ctx context.Context, db *trussdiv.DB, name string, prepared []string, rng *rand.Rand,
	batches, batchEdges int) (DynamicDatasetReport, error) {
	const k, r = int32(4), 100
	g := db.Graph()
	var applyTotal, rebuildTotal time.Duration
	var repairedTotal, trussRepairs, trussRegionTotal, rankingsTotal int
	for batch := 0; batch < batches; batch++ {
		u := RandomUpdates(db.Graph(), rng, batchEdges/2, batchEdges-batchEdges/2)
		var epoch trussdiv.Epoch
		var applyErr error
		applyTotal += Timed(func() {
			epoch, applyErr = db.Apply(ctx, u)
		})
		if applyErr != nil {
			return DynamicDatasetReport{}, fmt.Errorf("%s: apply batch %d: %w", name, batch, applyErr)
		}
		snap := db.Snapshot()
		if snap.Epoch() != epoch {
			return DynamicDatasetReport{}, fmt.Errorf("%s: snapshot epoch %d, apply returned %d", name, snap.Epoch(), epoch)
		}
		if st := snap.ApplyStats(); st != nil {
			repairedTotal += st.Affected
			if st.TrussRepaired {
				trussRepairs++
				trussRegionTotal += st.TrussRegion
			}
			rankingsTotal += st.RankingsPatched
		}

		var rebuilt *trussdiv.DB
		var rebuildErr error
		rebuildTotal += Timed(func() {
			rebuilt, rebuildErr = trussdiv.Open(db.Graph())
			if rebuildErr == nil {
				rebuildErr = rebuilt.Prepare(ctx, prepared...)
			}
		})
		if rebuildErr != nil {
			return DynamicDatasetReport{}, fmt.Errorf("%s: rebuild batch %d: %w", name, batch, rebuildErr)
		}
		// The correctness bar: the incrementally maintained DB must
		// answer every engine's query — ranked answers and recovered
		// social contexts both — exactly like the cold rebuild.
		for _, engine := range []string{"online", "bound", "tsd", "gct", "hybrid"} {
			q := trussdiv.NewQuery(k, r, trussdiv.WithContexts(), trussdiv.ViaEngine(engine))
			appliedRes, _, err := db.TopR(ctx, q)
			if err != nil {
				return DynamicDatasetReport{}, fmt.Errorf("%s/%s: applied query: %w", name, engine, err)
			}
			rebuiltRes, _, err := rebuilt.TopR(ctx, q)
			if err != nil {
				return DynamicDatasetReport{}, fmt.Errorf("%s/%s: rebuilt query: %w", name, engine, err)
			}
			if err := sameAnswer(appliedRes, rebuiltRes); err != nil {
				return DynamicDatasetReport{}, fmt.Errorf("%s/%s: incremental apply diverged from rebuild: %w",
					name, engine, err)
			}
			if !reflect.DeepEqual(appliedRes.Contexts, rebuiltRes.Contexts) {
				return DynamicDatasetReport{}, fmt.Errorf("%s/%s: incremental apply's contexts diverged from rebuild",
					name, engine)
			}
		}
	}
	apply := applyTotal / time.Duration(batches)
	rebuild := rebuildTotal / time.Duration(batches)
	var region float64
	if trussRepairs > 0 {
		region = float64(trussRegionTotal) / float64(trussRepairs)
	}
	return DynamicDatasetReport{
		Name:            name,
		Vertices:        g.N(),
		Edges:           g.M(),
		Batches:         batches,
		BatchEdges:      batchEdges,
		ApplyNS:         apply.Nanoseconds(),
		RebuildNS:       rebuild.Nanoseconds(),
		Repaired:        float64(repairedTotal) / float64(batches),
		TrussRepairs:    trussRepairs,
		TrussRegion:     region,
		RankingsPatched: float64(rankingsTotal) / float64(batches),
		Speedup:         float64(rebuild) / float64(max(apply, time.Nanosecond)),
	}, nil
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
