package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trussdiv"
)

// runStore measures what the persistent index store buys a serving
// process: the cold path (build every index from the raw edge list and
// persist it) versus the two warm paths a format v3 store offers — the
// classic read-and-decode reload and the zero-copy mmap open. Both warm
// DBs' answers are asserted identical to the cold DB's on every engine,
// so no speedup column ever comes at the price of a different result.
// Numbers land in BENCH_store.json so the startup-cost trajectory is
// tracked from PR to PR.

// StoreDatasetReport is one dataset's cold-vs-warm measurement.
type StoreDatasetReport struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// ColdStartNS is Open + Prepare against an empty index directory:
	// every index is built from the graph and persisted.
	ColdStartNS int64 `json:"cold_start_ns"`
	// WarmStartNS is Open + Prepare against the directory the cold run
	// populated, forced through decode mode (kept under this name so the series stays comparable across format
	// versions). Warm numbers are the best of warmRuns attempts so a stray
	// GC pause in one run does not masquerade as startup cost.
	WarmStartNS int64 `json:"warm_start_ns"`
	// WarmMmapNS is the same warm start through the default mmap path:
	// the file is mapped once and sections are served as zero-copy views,
	// structurally validated as they are parsed (no payload checksum pass
	// on the warm path — store.File.VerifySections is the explicit check).
	WarmMmapNS int64 `json:"warm_mmap_ns"`
	FileBytes  int64 `json:"file_bytes"`
	// Speedup is cold / decode-warm startup wall time.
	Speedup float64 `json:"speedup"`
	// MmapSpeedup is decode-warm / mmap-warm startup wall time.
	MmapSpeedup float64 `json:"mmap_speedup"`
	// WarmAllocBytes / WarmMmapAllocBytes are the heap bytes allocated
	// during each warm start — the marginal per-replica memory cost of
	// another process serving the same store (mmap pages are shared and
	// file-backed, so they are missing from the mmap number by design).
	WarmAllocBytes     int64 `json:"warm_alloc_bytes"`
	WarmMmapAllocBytes int64 `json:"warm_mmap_alloc_bytes"`
}

// StoreReport is the schema of BENCH_store.json.
type StoreReport struct {
	Datasets []StoreDatasetReport `json:"datasets"`
}

// StoreReportFile is the artifact runStore writes (into cfg.OutDir,
// default the working directory).
const StoreReportFile = "BENCH_store.json"

// timedAlloc runs f and reports its wall time plus the heap bytes it
// allocated (monotonic TotalAlloc delta, so concurrent GC does not hide
// allocations).
func timedAlloc(f func()) (time.Duration, int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := Timed(f)
	runtime.ReadMemStats(&after)
	return d, int64(after.TotalAlloc - before.TotalAlloc)
}

// warmRuns is how many times each warm start is repeated; the fastest run
// is reported. Warm starts are millisecond-scale, so a single GC assist or
// scheduler hiccup inside one run would otherwise dominate the number.
const warmRuns = 3

// bestWarm repeats f warmRuns times with a GC between attempts and returns
// the fastest wall time with that run's allocation delta.
func bestWarm(f func()) (time.Duration, int64) {
	best, bestAlloc := time.Duration(0), int64(0)
	for i := 0; i < warmRuns; i++ {
		runtime.GC()
		d, alloc := timedAlloc(f)
		if i == 0 || d < best {
			best, bestAlloc = d, alloc
		}
	}
	return best, bestAlloc
}

// runStore times cold and warm startup per dataset and emits both a
// table and BENCH_store.json.
func runStore(w io.Writer, cfg Config) error {
	const k, r = int32(4), 100
	ctx := context.Background()
	scratch, err := os.MkdirTemp("", "tsd-store-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var report StoreReport
	t := &Table{
		Title:   "Cold build vs warm load startup (persistent index store)",
		Headers: []string{"Network", "cold start", "warm decode", "warm mmap", "file size", "cold/decode", "decode/mmap"},
	}
	for _, name := range cfg.perfDatasets() {
		g := MustLoad(name)
		dir := filepath.Join(scratch, name)

		var coldDB, warmDB, mmapDB *trussdiv.DB
		var coldErr, warmErr, mmapErr error
		cold := Timed(func() {
			coldDB, coldErr = trussdiv.Open(g, trussdiv.WithIndexDir(dir))
			if coldErr == nil {
				coldErr = coldDB.Prepare(ctx)
			}
		})
		if coldErr != nil {
			return fmt.Errorf("%s: cold start: %w", name, coldErr)
		}
		if st := coldDB.StoreStatus(); st.SaveErr != nil {
			return fmt.Errorf("%s: persist: %w", name, st.SaveErr)
		}
		warm, warmAlloc := bestWarm(func() {
			warmDB, warmErr = trussdiv.Open(g, trussdiv.WithIndexDir(dir),
				trussdiv.WithStoreMode(trussdiv.StoreDecode))
			if warmErr == nil {
				warmErr = warmDB.Prepare(ctx)
			}
		})
		if warmErr != nil {
			return fmt.Errorf("%s: warm start: %w", name, warmErr)
		}
		if st := warmDB.StoreStatus(); !st.Warm || st.LoadErr != nil {
			return fmt.Errorf("%s: warm open did not trust the store (warm=%v, err=%v)",
				name, st.Warm, st.LoadErr)
		}
		warmMmap, mmapAlloc := bestWarm(func() {
			mmapDB, mmapErr = trussdiv.Open(g, trussdiv.WithIndexDir(dir))
			if mmapErr == nil {
				mmapErr = mmapDB.Prepare(ctx)
			}
		})
		if mmapErr != nil {
			return fmt.Errorf("%s: mmap warm start: %w", name, mmapErr)
		}
		if st := mmapDB.StoreStatus(); !st.Warm || st.LoadErr != nil {
			return fmt.Errorf("%s: mmap warm open did not trust the store (warm=%v, err=%v)",
				name, st.Warm, st.LoadErr)
		}
		// The paper's correctness bar for the store: a loaded index must
		// answer every engine's query exactly like a built one — through
		// either read mode.
		for _, engine := range []string{"online", "bound", "tsd", "gct", "hybrid"} {
			q := trussdiv.NewQuery(k, r, trussdiv.WithContexts(), trussdiv.ViaEngine(engine))
			coldRes, _, err := coldDB.TopR(ctx, q)
			if err != nil {
				return fmt.Errorf("%s/%s: cold query: %w", name, engine, err)
			}
			warmRes, _, err := warmDB.TopR(ctx, q)
			if err != nil {
				return fmt.Errorf("%s/%s: warm query: %w", name, engine, err)
			}
			if err := sameAnswer(coldRes, warmRes); err != nil {
				return fmt.Errorf("%s/%s: loaded index answers differ from built: %w", name, engine, err)
			}
			mmapRes, _, err := mmapDB.TopR(ctx, q)
			if err != nil {
				return fmt.Errorf("%s/%s: mmap query: %w", name, engine, err)
			}
			if err := sameAnswer(coldRes, mmapRes); err != nil {
				return fmt.Errorf("%s/%s: mmap-served answers differ from built: %w", name, engine, err)
			}
		}
		info, err := os.Stat(mmapDB.StoreStatus().Path)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		speedup := float64(cold) / float64(max(warm, time.Nanosecond))
		mmapSpeedup := float64(warm) / float64(max(warmMmap, time.Nanosecond))
		report.Datasets = append(report.Datasets, StoreDatasetReport{
			Name:               name,
			Vertices:           g.N(),
			Edges:              g.M(),
			ColdStartNS:        cold.Nanoseconds(),
			WarmStartNS:        warm.Nanoseconds(),
			WarmMmapNS:         warmMmap.Nanoseconds(),
			FileBytes:          info.Size(),
			Speedup:            speedup,
			MmapSpeedup:        mmapSpeedup,
			WarmAllocBytes:     warmAlloc,
			WarmMmapAllocBytes: mmapAlloc,
		})
		t.AddRow(name, cold, warm, warmMmap, fmt.Sprintf("%d B", info.Size()),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.2fx", mmapSpeedup))
	}
	t.Fprint(w)
	path, err := writeArtifact(cfg, StoreReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}
