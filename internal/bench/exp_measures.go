package bench

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"time"

	"trussdiv"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// runMeasures benchmarks the routing matrix cell by cell (the §7 model
// comparison made a servable workload): for every dataset, every
// diversity measure and every engine db.Measures() lists for it, one row
// times the first query on a freshly opened DB, Prepare(engine), and the
// queries the prepared DB answers, and verifies every answer. The
// fixed-k engines run at k = 4 and must answer byte-identically to the
// online cell; the parameter-free pfree engine runs at k = 0, where its
// first query is the online fallback (every candidate's all-k vector
// scored on the fly) and its prepared answer, an O(r) prefix read of the
// table's k = 0 row, must equal that cold one. The DB runs with the
// result cache disabled so repeated queries measure execution, not cache
// hits. On more than one core every row also times its prepared query
// with contexts serial (Workers: 1) against the default worker pool, and
// every dataset the cold truss decomposition serial (truss.Decompose)
// against h-index iteration (truss.DecomposeParallel): the only committed
// record of what the parallel layer buys, with each pair's answers
// asserted equal. On one core those pairs would time the same thing
// twice, so they are left out. Numbers land in BENCH_measures.json,
// tracking the per-measure serving cost from PR to PR.

// MeasureRow is one (dataset, measure, engine) cell of the routing matrix.
type MeasureRow struct {
	Dataset string `json:"dataset"`
	Measure string `json:"measure"`
	Engine  string `json:"engine"`
	K       int    `json:"k"`
	// First is the first query of a freshly opened DB: it pays whatever
	// the engine readies on first use (bound's level and, for truss, the
	// global truss decomposition; hybrid's table; the tsd and gct
	// indexes), or answers by the online scan where the engine does not
	// build (comp, kcore and pfree before Prepare).
	First Op `json:"first"`
	// PrepareNS is what Prepare(engine) cost on another fresh DB, and Warm
	// the queries that prepared DB answers after one untimed query.
	PrepareNS int64 `json:"prepare_ns"`
	Warm      Op    `json:"warm"`
	// Serial and Parallel time the prepared query with contexts at
	// Workers: 1 and at the default worker count, alternating; nil at
	// GOMAXPROCS=1.
	Serial   *Op `json:"serial,omitempty"`
	Parallel *Op `json:"parallel,omitempty"`
	// Verified records that every answer of the cell matched the
	// reference: the online cell's at k = 4, pfree's cold one at k = 0.
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

// DecomposeRow times one dataset's cold truss decomposition serial
// (Decompose) against h-index iteration (DecomposeParallel) on the
// default worker count, alternating; the tau arrays are asserted equal.
type DecomposeRow struct {
	Dataset  string `json:"dataset"`
	Serial   Op     `json:"serial"`
	Parallel Op     `json:"parallel"`
}

// MeasuresReport is the schema of BENCH_measures.json. K is the threshold
// of the fixed-k engines; pfree rows run at k = 0. Decompose, like each
// row's Serial and Parallel, is empty at GOMAXPROCS=1.
type MeasuresReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	K          int             `json:"k"`
	R          int             `json:"r"`
	Rows       []MeasureRow    `json:"rows"`
	PrepareAll []PrepareAllRow `json:"prepare_all,omitempty"`
	Decompose  []DecomposeRow  `json:"decompose,omitempty"`
}

// MeasuresReportFile is the artifact runMeasures writes.
const MeasuresReportFile = "BENCH_measures.json"

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
	reps := 5
	if cfg.Quick {
		reps = 3
	}
	parallel := runtime.GOMAXPROCS(0) > 1
	report := MeasuresReport{GOMAXPROCS: runtime.GOMAXPROCS(0), K: int(k), R: r}
	t := &Table{
		Title: fmt.Sprintf("Routing-matrix top-r serving cost, k=%d (pfree k=0) r=%d (extension)", k, r),
		Headers: []string{"Network", "measure", "engine", "k", "first", "prepare", "warm",
			"first allocs/op", "warm allocs/op", "ctx serial", "ctx parallel"},
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		if parallel {
			row, err := timeDecompose(g, reps)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			row.Dataset = name
			report.Decompose = append(report.Decompose, row)
		}
		db, err := trussdiv.Open(g)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, mi := range db.Measures() {
			if !slices.Contains(measures, mi.Measure) {
				continue
			}
			// The reference answer at each k is the first one computed: the
			// catalogue lists online first, and pfree is the only k = 0 cell.
			want := map[int32]*trussdiv.Result{}
			for _, engine := range mi.Engines {
				kq := k
				if engine == "pfree" {
					kq = 0 // the parameter-free engine takes no threshold
				}
				cell := fmt.Sprintf("%s/%s/%s", name, mi.Measure, engine)
				row, answers, err := measureCell(ctx, g,
					trussdiv.NewQuery(kq, r, trussdiv.WithMeasure(mi.Measure), trussdiv.ViaEngine(engine)), reps, parallel)
				if err != nil {
					return fmt.Errorf("%s: %w", cell, err)
				}
				for _, res := range answers {
					if want[kq] == nil {
						want[kq] = res
					}
					if err := sameAnswer(want[kq], res); err != nil {
						return fmt.Errorf("%s: diverged from the reference: %w", cell, err)
					}
				}
				row.Dataset, row.Measure, row.Verified = name, string(mi.Measure), true
				report.Rows = append(report.Rows, row)
				serial, par := "-", "-"
				if row.Serial != nil {
					serial = FormatDuration(time.Duration(row.Serial.NS))
					par = FormatDuration(time.Duration(row.Parallel.NS))
				}
				t.AddRow(name, string(mi.Measure), engine, kq, time.Duration(row.First.NS),
					time.Duration(row.PrepareNS), time.Duration(row.Warm.NS),
					row.First.AllocsPerOp, row.Warm.AllocsPerOp, serial, par)
			}
		}
		if len(measures) == len(trussdiv.AllMeasures()) {
			// The rankings-backed engines: every measure's table, whose
			// row 0 serves pfree.
			row, err := timePrepareAll(ctx, g, []string{"hybrid", "comp", "kcore", "pfree"})
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
	for _, row := range report.Decompose {
		fmt.Fprintf(w, "decompose   %-12s serial %v vs parallel %v (%d workers)\n",
			row.Dataset, time.Duration(row.Serial.NS), time.Duration(row.Parallel.NS), report.GOMAXPROCS)
	}
	path, err := writeArtifact(cfg, MeasuresReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}

// measureCell times one cell: q's first query on each of reps freshly
// opened DBs, Prepare(q.Engine) on one more, and reps queries on that
// prepared DB after one untimed query there. The untimed query builds
// what Prepare leaves to the first query at q's k (a component or core
// bound level), so every warm rep reads the same state. With pair set it
// then times q with contexts serial against the default worker count on
// the same DB, and requires the two to answer alike. It returns the
// cell's row (Dataset, Measure and Verified left to the caller) and every
// answer it got.
func measureCell(ctx context.Context, g *graph.Graph, q trussdiv.Query, reps int, pair bool) (MeasureRow, []*trussdiv.Result, error) {
	var db *trussdiv.DB
	open := func() (err error) {
		// Result cache off: repeated identical queries would otherwise be
		// served from the cache, zeroing the warm timings and allocations.
		db, err = trussdiv.Open(g, trussdiv.WithResultCache(0))
		return err
	}
	answers := make([]*trussdiv.Result, 0, 2*reps+2)
	query := func() error {
		res, _, err := db.TopR(ctx, q)
		answers = append(answers, res)
		return err
	}
	first, err := sample(reps, open, query)
	if err != nil {
		return MeasureRow{}, nil, fmt.Errorf("first query: %w", err)
	}
	if err := open(); err != nil {
		return MeasureRow{}, nil, err
	}
	prepare := Timed(func() { err = db.Prepare(ctx, q.Engine) })
	if err != nil {
		return MeasureRow{}, nil, fmt.Errorf("prepare: %w", err)
	}
	if err := query(); err != nil {
		return MeasureRow{}, nil, fmt.Errorf("untimed query after prepare: %w", err)
	}
	warm, err := sample(reps, nil, query)
	if err != nil {
		return MeasureRow{}, nil, fmt.Errorf("warm query: %w", err)
	}
	row := MeasureRow{Engine: q.Engine, K: int(q.K), First: first[0],
		PrepareNS: prepare.Nanoseconds(), Warm: warm[0]}
	if !pair {
		return row, answers, nil
	}
	serialQ, parallelQ := q, q
	serialQ.IncludeContexts, serialQ.Workers = true, 1
	parallelQ.IncludeContexts = true
	var serialRes, parallelRes *trussdiv.Result
	ops, err := sample(reps, nil, func() (err error) {
		serialRes, _, err = db.TopR(ctx, serialQ)
		return err
	}, func() (err error) {
		parallelRes, _, err = db.TopR(ctx, parallelQ)
		return err
	})
	if err != nil {
		return MeasureRow{}, nil, fmt.Errorf("serial vs parallel query: %w", err)
	}
	if err := sameAnswer(serialRes, parallelRes); err != nil {
		return MeasureRow{}, nil, fmt.Errorf("serial and parallel answers differ: %w", err)
	}
	if !reflect.DeepEqual(serialRes.Contexts, parallelRes.Contexts) {
		return MeasureRow{}, nil, fmt.Errorf("serial and parallel contexts differ")
	}
	row.Serial, row.Parallel = &ops[0], &ops[1]
	return row, append(answers, serialRes, parallelRes), nil
}

// timeDecompose times g's truss decomposition serial against h-index
// iteration over the default worker count, reps times each, and requires
// the two tau arrays to be equal. The caller fills in Dataset.
func timeDecompose(g *graph.Graph, reps int) (DecomposeRow, error) {
	var serialTau, parallelTau []int32
	ops, err := sample(reps, nil, func() error {
		serialTau = truss.Decompose(g)
		return nil
	}, func() error {
		parallelTau = truss.DecomposeParallel(g, 0)
		return nil
	})
	if err != nil {
		return DecomposeRow{}, err
	}
	if !slices.Equal(serialTau, parallelTau) {
		return DecomposeRow{}, fmt.Errorf("parallel decomposition diverges from serial tau")
	}
	return DecomposeRow{Serial: ops[0], Parallel: ops[1]}, nil
}

// timePrepareAll times one multi-structure Prepare (names in a single
// call, so the shared extraction pass serves them together) against
// reaching the same end state one name at a time on a second DB, every
// singleton paying its own ego sweep. The caller fills in Dataset.
func timePrepareAll(ctx context.Context, g *graph.Graph, names []string) (PrepareAllRow, error) {
	shared, err := trussdiv.Open(g)
	if err != nil {
		return PrepareAllRow{}, err
	}
	all := Timed(func() { err = shared.Prepare(ctx, names...) })
	if err != nil {
		return PrepareAllRow{}, fmt.Errorf("Prepare(%v): %w", names, err)
	}
	split, err := trussdiv.Open(g)
	if err != nil {
		return PrepareAllRow{}, err
	}
	var sum time.Duration
	for _, n := range names {
		sum += Timed(func() { err = split.Prepare(ctx, n) })
		if err != nil {
			return PrepareAllRow{}, fmt.Errorf("Prepare(%s): %w", n, err)
		}
	}
	return PrepareAllRow{
		Names:        names,
		PrepareAllNS: all.Nanoseconds(),
		PrepareSumNS: sum.Nanoseconds(),
		Speedup:      float64(sum) / float64(max(all, time.Nanosecond)),
	}, nil
}
