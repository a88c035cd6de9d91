package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"trussdiv/internal/core"
	"trussdiv/internal/truss"
)

// runParallel is the engineering extension behind the ROADMAP's "fast as
// the hardware allows" axis: it times every engine's top-r search serial
// (Workers=1) versus spread over a worker pool, and records the numbers
// in a machine-readable BENCH_parallel.json so the performance
// trajectory of the parallel execution layer is tracked from PR to PR.
// Answers are asserted byte-equal between the two runs — the parallel
// scan's determinism guarantee, measured rather than assumed.

// parallelRuns is how many times each serial and each parallel cell is
// timed; one wall-clock sample of a ~10 ms search is mostly noise.
const parallelRuns = 5

// ParallelTiming is one cell timed serial and parallel, parallelRuns
// times each: the plain *_ns fields are the medians, the *_min_ns and
// *_max_ns fields the extremes.
type ParallelTiming struct {
	SerialNS      int64   `json:"serial_ns"`
	SerialMinNS   int64   `json:"serial_min_ns"`
	SerialMaxNS   int64   `json:"serial_max_ns"`
	ParallelNS    int64   `json:"parallel_ns"`
	ParallelMinNS int64   `json:"parallel_min_ns"`
	ParallelMaxNS int64   `json:"parallel_max_ns"`
	Speedup       float64 `json:"speedup"` // median serial / median parallel wall time
}

// ParallelEngineSample is one engine's serial-vs-parallel measurement.
type ParallelEngineSample struct {
	Engine string `json:"engine"`
	ParallelTiming
}

// ParallelDatasetReport groups the samples of one dataset. Decompose
// times the cold truss decomposition serial (Decompose) versus h-index
// iteration (DecomposeParallel), the build-time half of the parallel
// layer; tau arrays are asserted byte-equal before it is recorded.
type ParallelDatasetReport struct {
	Name      string                 `json:"name"`
	Vertices  int                    `json:"vertices"`
	Edges     int                    `json:"edges"`
	Decompose ParallelTiming         `json:"decompose"`
	Engines   []ParallelEngineSample `json:"engines"`
}

// timeParallel times serial and parallel parallelRuns times each,
// alternating the two so drift in the machine's load hits both alike.
func timeParallel(serial, parallel func()) ParallelTiming {
	var s, p []time.Duration
	for range parallelRuns {
		s = append(s, Timed(serial))
		p = append(p, Timed(parallel))
	}
	slices.Sort(s)
	slices.Sort(p)
	sMed, pMed := s[len(s)/2], p[len(p)/2]
	return ParallelTiming{
		SerialNS: sMed.Nanoseconds(), SerialMinNS: s[0].Nanoseconds(), SerialMaxNS: s[len(s)-1].Nanoseconds(),
		ParallelNS: pMed.Nanoseconds(), ParallelMinNS: p[0].Nanoseconds(), ParallelMaxNS: p[len(p)-1].Nanoseconds(),
		Speedup: float64(sMed) / float64(max(pMed, time.Nanosecond)),
	}
}

// ParallelReport is the schema of BENCH_parallel.json.
type ParallelReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// SingleCoreWarning flags a run that measured "parallelism" on one
	// core: every speedup in the file is then noise around 1.0x and must
	// not be read as a regression or an improvement.
	SingleCoreWarning bool                    `json:"single_core_warning,omitempty"`
	Workers           int                     `json:"workers"`
	K                 int32                   `json:"k"`
	R                 int                     `json:"r"`
	Contexts          bool                    `json:"contexts"`
	Datasets          []ParallelDatasetReport `json:"datasets"`
}

// ParallelReportFile is the artifact runParallel writes (into cfg.OutDir,
// default the working directory).
const ParallelReportFile = "BENCH_parallel.json"

// runParallel measures serial vs parallel TopR per engine and emits both
// a table and BENCH_parallel.json.
func runParallel(w io.Writer, cfg Config) error {
	const k, r = int32(4), 100
	ctx := context.Background()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	report := ParallelReport{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		SingleCoreWarning: runtime.GOMAXPROCS(0) == 1,
		Workers:           workers,
		K:                 k,
		R:                 r,
		Contexts:          true,
	}
	if report.SingleCoreWarning {
		fmt.Fprintf(w, "WARNING: GOMAXPROCS=1 — the parallel measurements below ran on a single core;\n"+
			"every speedup is noise around 1.0x. Re-run with GOMAXPROCS set to the machine's\n"+
			"core count before reading anything into these numbers.\n\n")
	}
	t := &Table{
		Title: fmt.Sprintf("Serial vs parallel TopR, k=%d r=%d, %d workers, median of %d (extension)",
			k, r, workers, parallelRuns),
		Headers: []string{"Network", "engine", "serial", "parallel", "speedup"},
	}
	addRow := func(name, cell string, pt ParallelTiming) {
		t.AddRow(name, cell, time.Duration(pt.SerialNS), time.Duration(pt.ParallelNS),
			fmt.Sprintf("%.2fx", pt.Speedup))
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		var serialTau, parallelTau []int32
		decompose := timeParallel(
			func() { serialTau = truss.Decompose(g) },
			func() { parallelTau = truss.DecomposeParallel(g, workers) })
		if !slices.Equal(serialTau, parallelTau) {
			return fmt.Errorf("%s: parallel decomposition diverges from serial tau", name)
		}
		idx := core.BuildAll(g, core.BuildTargets{TSD: true, GCT: true}, workers)
		searchers := []struct {
			name string
			s    interface {
				Search(ctx context.Context, p core.Params) (*core.Result, *core.Stats, error)
			}
		}{
			{"online", core.NewOnline(g)},
			{"bound", core.NewBound(g)},
			{"tsd", core.NewTSD(idx.TSD)},
			{"gct", core.NewGCT(idx.GCT)},
			{"hybrid", hybridSearcher(g, workers)},
		}
		ds := ParallelDatasetReport{Name: name, Vertices: g.N(), Edges: g.M(), Decompose: decompose}
		addRow(name, "decompose", decompose)
		for _, eng := range searchers {
			var serialRes, parallelRes *core.Result
			var serialErr, parallelErr error
			timing := timeParallel(func() {
				serialRes, _, serialErr = eng.s.Search(ctx, core.Params{K: k, R: r, Workers: 1})
			}, func() {
				parallelRes, _, parallelErr = eng.s.Search(ctx, core.Params{K: k, R: r, Workers: workers})
			})
			if serialErr != nil || parallelErr != nil {
				return fmt.Errorf("%s/%s: search failed (serial: %v, parallel: %v)",
					name, eng.name, serialErr, parallelErr)
			}
			if err := sameAnswer(serialRes, parallelRes); err != nil {
				return fmt.Errorf("%s/%s: serial and parallel answers differ: %w", name, eng.name, err)
			}
			ds.Engines = append(ds.Engines, ParallelEngineSample{Engine: eng.name, ParallelTiming: timing})
			addRow(name, eng.name, timing)
		}
		report.Datasets = append(report.Datasets, ds)
	}
	t.Fprint(w)

	// Guard the committed baseline: a single-core run must never silently
	// replace an existing BENCH_parallel.json — its speedups are noise and
	// would read as a perf regression of the parallel layer. -force opts
	// into the overwrite (and the file still carries single_core_warning).
	target := filepath.Join(cfg.OutDir, ParallelReportFile)
	if report.SingleCoreWarning && !cfg.Force {
		if _, statErr := os.Stat(target); statErr == nil {
			return fmt.Errorf("refusing to overwrite %s with a single-core run "+
				"(GOMAXPROCS=1): re-run on a multicore machine, or pass -force "+
				"to record it anyway with single_core_warning=true", target)
		}
	}
	path, err := writeArtifact(cfg, ParallelReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}

// sameAnswer verifies the determinism guarantee the parallel layer makes:
// identical ranked answers (the paper's §2.3 output) for any worker count.
func sameAnswer(a, b *core.Result) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing result (%v, %v)", a == nil, b == nil)
	}
	if len(a.TopR) != len(b.TopR) {
		return fmt.Errorf("answer sizes %d vs %d", len(a.TopR), len(b.TopR))
	}
	for i := range a.TopR {
		if a.TopR[i] != b.TopR[i] {
			return fmt.Errorf("position %d: %+v vs %+v", i, a.TopR[i], b.TopR[i])
		}
	}
	return nil
}
