package bench

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"trussdiv"
	"trussdiv/internal/graph"
)

// runMeasures benchmarks the measure axis (the §7 model comparison made
// a servable workload): for every dataset and every diversity measure it
// times the three routes a measure query can take — the generic online
// scan, the generic bound search, and the measure's rankings-backed fast
// engine (hybrid for truss, comp/kcore for the alternatives) after one
// Prepare — and verifies all three return identical answers. The DB runs
// with the result cache disabled so repeated queries measure execution,
// not cache hits. Numbers land in BENCH_measures.json, tracking the
// per-measure serving cost from PR to PR.

// MeasureRow is one (dataset, measure) timing.
type MeasureRow struct {
	Dataset string `json:"dataset"`
	Measure string `json:"measure"`
	// OnlineNS and BoundNS are per-query wall times of the generic
	// engines; BoundNS is the warm mean after BoundFirstNS, the first
	// bound query of the DB, which builds the bound level it reads (and,
	// for truss, the global truss decomposition). RankedNS is the
	// per-query time of the rankings-backed engine once prepared, and
	// PrepareNS what that preparation cost.
	OnlineNS     int64 `json:"online_ns"`
	BoundFirstNS int64 `json:"bound_first_ns"`
	BoundNS      int64 `json:"bound_ns"`
	PrepareNS    int64 `json:"prepare_ns"`
	RankedNS     int64 `json:"ranked_ns"`
	// Speedup is OnlineNS / RankedNS: what the prepared fast path buys
	// over recomputing the measure from scratch per query.
	Speedup float64 `json:"speedup"`
	// AllocsPerOp and BytesPerOp are the mean heap allocations and bytes
	// of one online query — the scratch-reuse hot path this table tracks
	// from PR to PR alongside its wall time.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Verified records that online, bound, and ranked answers matched.
	Verified bool `json:"verified"`
}

// PrepareAllRow compares one shared multi-structure Prepare (a single
// extraction pass feeds every requested structure) against preparing
// the same names one at a time, each paying its own ego sweep.
type PrepareAllRow struct {
	Dataset      string   `json:"dataset"`
	Names        []string `json:"names"`
	PrepareAllNS int64    `json:"prepare_all_ns"`
	PrepareSumNS int64    `json:"prepare_sum_ns"`
	Speedup      float64  `json:"speedup"`
}

// MeasuresReport is the schema of BENCH_measures.json.
type MeasuresReport struct {
	K          int             `json:"k"`
	R          int             `json:"r"`
	Rows       []MeasureRow    `json:"rows"`
	PrepareAll []PrepareAllRow `json:"prepare_all,omitempty"`
}

// MeasuresReportFile is the artifact runMeasures writes.
const MeasuresReportFile = "BENCH_measures.json"

// fastEngineFor names the rankings-backed engine of each measure.
func fastEngineFor(m trussdiv.Measure) string {
	switch m {
	case trussdiv.MeasureComponent:
		return "comp"
	case trussdiv.MeasureCore:
		return "kcore"
	default:
		return "hybrid"
	}
}

// measuresUnderTest honors the -measure flag (cfg.Measure): one measure
// when set, all three otherwise.
func measuresUnderTest(cfg Config) ([]trussdiv.Measure, error) {
	if cfg.Measure == "" {
		return trussdiv.AllMeasures(), nil
	}
	m, err := trussdiv.ParseMeasure(cfg.Measure)
	if err != nil {
		return nil, err
	}
	return []trussdiv.Measure{m}, nil
}

func runMeasures(w io.Writer, cfg Config) error {
	const k, r = int32(4), 100
	ctx := context.Background()
	measures, err := measuresUnderTest(cfg)
	if err != nil {
		return err
	}
	queryReps := 5
	if cfg.Quick {
		queryReps = 3
	}
	report := MeasuresReport{K: int(k), R: r}
	t := &Table{
		Title:   fmt.Sprintf("Per-measure top-r serving cost, k=%d r=%d (extension)", k, r),
		Headers: []string{"Network", "measure", "online", "bound first", "bound", "prepare", "ranked", "speedup", "allocs/op"},
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		for _, m := range measures {
			// Result cache off: repeated identical queries would otherwise
			// be served from the cache, diluting every per-query mean (and
			// zeroing the allocation column) after the first reps.
			db, err := trussdiv.Open(g, trussdiv.WithResultCache(0))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			var onlineRes, boundRes, rankedRes *trussdiv.Result
			online := timePerQuery(queryReps, func() error {
				onlineRes, _, err = db.TopR(ctx, trussdiv.NewQuery(k, r,
					trussdiv.WithMeasure(m), trussdiv.ViaEngine("online")))
				return err
			})
			if err != nil {
				return fmt.Errorf("%s/%s online: %w", name, m, err)
			}
			boundQuery := func() error {
				boundRes, _, err = db.TopR(ctx, trussdiv.NewQuery(k, r,
					trussdiv.WithMeasure(m), trussdiv.ViaEngine("bound")))
				return err
			}
			boundFirst := timePerQuery(1, boundQuery)
			if err != nil {
				return fmt.Errorf("%s/%s first bound: %w", name, m, err)
			}
			bound := timePerQuery(queryReps, boundQuery)
			if err != nil {
				return fmt.Errorf("%s/%s bound: %w", name, m, err)
			}

			fast := fastEngineFor(m)
			var prepare time.Duration
			prepare += Timed(func() {
				err = db.Prepare(ctx, fast)
			})
			if err != nil {
				return fmt.Errorf("%s/%s prepare(%s): %w", name, m, fast, err)
			}
			ranked := timePerQuery(queryReps, func() error {
				rankedRes, _, err = db.TopR(ctx, trussdiv.NewQuery(k, r,
					trussdiv.WithMeasure(m), trussdiv.ViaEngine(fast)))
				return err
			})
			if err != nil {
				return fmt.Errorf("%s/%s ranked(%s): %w", name, m, fast, err)
			}

			// The speedup must measure the same answers, faster.
			if err := sameAnswer(onlineRes, boundRes); err != nil {
				return fmt.Errorf("%s/%s: bound diverged from online: %w", name, m, err)
			}
			if err := sameAnswer(onlineRes, rankedRes); err != nil {
				return fmt.Errorf("%s/%s: %s diverged from online: %w", name, m, fast, err)
			}
			if !reflect.DeepEqual(onlineRes.TopR, rankedRes.TopR) {
				return fmt.Errorf("%s/%s: ranked answer not byte-identical", name, m)
			}
			allocs, bytes := allocsPerOp(queryReps, func() error {
				_, _, err := db.TopR(ctx, trussdiv.NewQuery(k, r,
					trussdiv.WithMeasure(m), trussdiv.ViaEngine("online")))
				return err
			})

			speedup := float64(online) / float64(max(ranked, time.Nanosecond))
			report.Rows = append(report.Rows, MeasureRow{
				Dataset:      name,
				Measure:      string(m),
				OnlineNS:     online.Nanoseconds(),
				BoundFirstNS: boundFirst.Nanoseconds(),
				BoundNS:      bound.Nanoseconds(),
				PrepareNS:    prepare.Nanoseconds(),
				RankedNS:     ranked.Nanoseconds(),
				Speedup:      speedup,
				AllocsPerOp:  allocs,
				BytesPerOp:   bytes,
				Verified:     true,
			})
			t.AddRow(name, string(m), online, boundFirst, bound, prepare, ranked,
				fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%d", allocs))
		}
		if len(measures) >= 2 {
			var names []string
			for _, m := range measures {
				names = append(names, fastEngineFor(m))
			}
			row, err := timePrepareAll(ctx, g, names, names)
			if err != nil {
				return fmt.Errorf("%s prepare-all: %w", name, err)
			}
			row.Dataset = name
			report.PrepareAll = append(report.PrepareAll, row)
		}
	}
	t.Fprint(w)
	for _, row := range report.PrepareAll {
		fmt.Fprintf(w, "prepare-all %-12s %v: one pass %v vs one-at-a-time %v (%.2fx)\n",
			row.Dataset, row.Names,
			time.Duration(row.PrepareAllNS), time.Duration(row.PrepareSumNS), row.Speedup)
	}
	path, err := writeArtifact(cfg, MeasuresReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}

// timePrepareAll times one multi-structure Prepare (allNames in a single
// call, so the shared extraction pass serves them together) against
// reaching the same end state one name at a time (splitNames
// sequentially on a second DB, every singleton paying its own ego
// sweep). The caller fills in Dataset.
func timePrepareAll(ctx context.Context, g *graph.Graph, allNames, splitNames []string) (PrepareAllRow, error) {
	shared, err := trussdiv.Open(g)
	if err != nil {
		return PrepareAllRow{}, err
	}
	all := Timed(func() { err = shared.Prepare(ctx, allNames...) })
	if err != nil {
		return PrepareAllRow{}, fmt.Errorf("Prepare(%v): %w", allNames, err)
	}
	split, err := trussdiv.Open(g)
	if err != nil {
		return PrepareAllRow{}, err
	}
	var sum time.Duration
	for _, n := range splitNames {
		sum += Timed(func() { err = split.Prepare(ctx, n) })
		if err != nil {
			return PrepareAllRow{}, fmt.Errorf("Prepare(%s): %w", n, err)
		}
	}
	return PrepareAllRow{
		Names:        splitNames,
		PrepareAllNS: all.Nanoseconds(),
		PrepareSumNS: sum.Nanoseconds(),
		Speedup:      float64(sum) / float64(max(all, time.Nanosecond)),
	}, nil
}

// allocsPerOp reports the mean heap allocations and bytes of one run of
// f, from runtime.MemStats deltas across reps runs. The numbers include
// whatever the query path really does — worker goroutines, result
// assembly — not just the scorer, so they track the serving cost a
// replica pays per request.
func allocsPerOp(reps int, f func() error) (allocs, bytes int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if f() != nil {
			return 0, 0 // caller already surfaced the error on the timed path
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(reps),
		int64(after.TotalAlloc-before.TotalAlloc) / int64(reps)
}

// timePerQuery runs f reps times and returns the mean duration; the
// first error aborts (the caller inspects the captured err).
func timePerQuery(reps int, f func() error) time.Duration {
	var total time.Duration
	for i := 0; i < reps; i++ {
		var err error
		total += Timed(func() { err = f() })
		if err != nil {
			return total / time.Duration(i+1)
		}
	}
	return total / time.Duration(reps)
}
