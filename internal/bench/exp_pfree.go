package bench

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"time"

	"trussdiv"
)

// runPFree benchmarks the parameter-free engine's two execution paths
// (the ISSUE-9 extension): for every dataset and measure it times the
// online fallback (a cold pfree query scores each candidate's full all-k
// vector on the fly) against the prepared path (an O(r) prefix read of
// the pfree row of the measure's table after one Prepare), and verifies both answer
// byte-identically. The DB runs with the result cache disabled so the
// numbers measure execution, not cache hits. Results land in
// BENCH_pfree.json, tracking the k-less serving cost from PR to PR.

// PFreeRow is one (dataset, measure) timing.
type PFreeRow struct {
	Dataset string `json:"dataset"`
	Measure string `json:"measure"`
	// OnlineNS is the per-query wall time of the online fallback (no
	// ranking present); PrepareNS what Prepare("pfree") cost; RankedNS
	// the per-query time of the prepared prefix read.
	OnlineNS  int64 `json:"online_ns"`
	PrepareNS int64 `json:"prepare_ns"`
	RankedNS  int64 `json:"ranked_ns"`
	// Speedup is OnlineNS / RankedNS: what the prepared ranking buys over
	// re-scoring every candidate's all-k vector per query.
	Speedup float64 `json:"speedup"`
	// AllocsPerOp and BytesPerOp are the mean heap allocations and bytes
	// of one online (cold) pfree query — the all-k scoring hot path.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Verified records that the online and prepared answers matched.
	Verified bool `json:"verified"`
}

// PFreeReport is the schema of BENCH_pfree.json.
type PFreeReport struct {
	R    int        `json:"r"`
	Rows []PFreeRow `json:"rows"`
	// PrepareAll compares the cold Prepare("pfree") — one shared
	// extraction pass building every measure's tables at once — against
	// preparing the same end state one structure at a time.
	PrepareAll []PrepareAllRow `json:"prepare_all,omitempty"`
}

// PFreeReportFile is the artifact runPFree writes.
const PFreeReportFile = "BENCH_pfree.json"

func runPFree(w io.Writer, cfg Config) error {
	const r = 100
	ctx := context.Background()
	measures, err := measuresUnderTest(cfg)
	if err != nil {
		return err
	}
	queryReps := 5
	if cfg.Quick {
		queryReps = 3
	}
	report := PFreeReport{R: r}
	t := &Table{
		Title:   fmt.Sprintf("Parameter-free top-r serving cost, r=%d (extension)", r),
		Headers: []string{"Network", "measure", "online", "prepare", "ranked", "speedup", "allocs/op"},
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		for _, m := range measures {
			// A fresh DB per cell so the online fallback is really cold: no
			// per-k tables to derive the ranking from, no result cache to
			// serve repeats for free.
			db, err := trussdiv.Open(g, trussdiv.WithResultCache(0))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			q := trussdiv.NewQuery(0, r, trussdiv.WithMeasure(m), trussdiv.ViaEngine("pfree"))
			var onlineRes, rankedRes *trussdiv.Result
			online := timePerQuery(queryReps, func() error {
				onlineRes, _, err = db.TopR(ctx, q)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s/%s online: %w", name, m, err)
			}

			var prepare time.Duration
			prepare += Timed(func() {
				err = db.Prepare(ctx, "pfree")
			})
			if err != nil {
				return fmt.Errorf("%s/%s prepare(pfree): %w", name, m, err)
			}
			ranked := timePerQuery(queryReps, func() error {
				rankedRes, _, err = db.TopR(ctx, q)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s/%s ranked: %w", name, m, err)
			}

			// The speedup must measure the same answers, faster.
			if err := sameAnswer(onlineRes, rankedRes); err != nil {
				return fmt.Errorf("%s/%s: prepared diverged from online: %w", name, m, err)
			}
			if !reflect.DeepEqual(onlineRes.TopR, rankedRes.TopR) {
				return fmt.Errorf("%s/%s: prepared answer not byte-identical", name, m)
			}
			// Allocation profile of the cold path, on its own fresh DB so
			// the prepared ranking above cannot serve the scan.
			coldDB, err := trussdiv.Open(g, trussdiv.WithResultCache(0))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			allocs, bytes := allocsPerOp(queryReps, func() error {
				_, _, err := coldDB.TopR(ctx, q)
				return err
			})

			speedup := float64(online) / float64(max(ranked, time.Nanosecond))
			report.Rows = append(report.Rows, PFreeRow{
				Dataset:     name,
				Measure:     string(m),
				OnlineNS:    online.Nanoseconds(),
				PrepareNS:   prepare.Nanoseconds(),
				RankedNS:    ranked.Nanoseconds(),
				Speedup:     speedup,
				AllocsPerOp: allocs,
				BytesPerOp:  bytes,
				Verified:    true,
			})
			t.AddRow(name, string(m), online, prepare, ranked,
				fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%d", allocs))
		}
		if len(measures) == len(trussdiv.AllMeasures()) {
			// Prepare("pfree") needs every measure's tables, so one call is
			// the shared pass; the split path builds the same end state one
			// structure at a time before the O(n + table) pfree row derivation.
			row, err := timePrepareAll(ctx, g,
				[]string{"pfree"}, []string{"hybrid", "comp", "kcore", "pfree"})
			if err != nil {
				return fmt.Errorf("%s prepare-all: %w", name, err)
			}
			row.Dataset = name
			report.PrepareAll = append(report.PrepareAll, row)
		}
	}
	t.Fprint(w)
	for _, row := range report.PrepareAll {
		fmt.Fprintf(w, "prepare-all %-12s pfree: one pass %v vs one-at-a-time %v (%.2fx)\n",
			row.Dataset, time.Duration(row.PrepareAllNS), time.Duration(row.PrepareSumNS), row.Speedup)
	}
	path, err := writeArtifact(cfg, PFreeReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}
