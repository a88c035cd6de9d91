package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"trussdiv"
)

// runStore measures what the persistent index store buys a serving
// process: the cold path (build every index from the raw edge list and
// persist it) versus the two warm paths a format v4 store offers — the
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
	// ColdStartNS is the median of storeRuns Open + Prepare runs, each
	// against an emptied index directory: every index is built from the
	// graph and persisted. ColdStartMinNS and ColdStartMaxNS are the
	// fastest and slowest of those runs.
	ColdStartNS    int64 `json:"cold_start_ns"`
	ColdStartMinNS int64 `json:"cold_start_min_ns"`
	ColdStartMaxNS int64 `json:"cold_start_max_ns"`
	// WarmStartNS is Open + Prepare against the directory the cold runs
	// populated, forced through decode mode (kept under this name so the
	// series stays comparable across format versions). Warm numbers are
	// medians of storeRuns runs, alternating decode and mmap.
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
	// WarmAllocBytes / WarmMmapAllocBytes are the mean heap bytes
	// allocated during one warm start — the marginal per-replica memory
	// cost of another process serving the same store (mmap pages are
	// shared and file-backed, so they are missing from the mmap number by
	// design).
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

// storeRuns is how many times each cold and warm start is timed. A
// single cold start of the same code varies by up to 2x on a shared host.
const storeRuns = 3

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
		cold, err := sample(storeRuns, func() error { return os.RemoveAll(dir) }, func() (err error) {
			coldDB, err = trussdiv.Open(g, trussdiv.WithIndexDir(dir))
			if err != nil {
				return err
			}
			if coldDB.StoreStatus().Warm {
				return fmt.Errorf("opened warm from an emptied index directory")
			}
			return coldDB.Prepare(ctx)
		})
		if err != nil {
			return fmt.Errorf("%s: cold start: %w", name, err)
		}
		if st := coldDB.StoreStatus(); st.SaveErr != nil {
			return fmt.Errorf("%s: persist: %w", name, st.SaveErr)
		}
		warm, err := sample(storeRuns, nil, func() (err error) {
			warmDB, err = trussdiv.Open(g, trussdiv.WithIndexDir(dir),
				trussdiv.WithStoreMode(trussdiv.StoreDecode))
			if err == nil {
				err = warmDB.Prepare(ctx)
			}
			return err
		}, func() (err error) {
			mmapDB, err = trussdiv.Open(g, trussdiv.WithIndexDir(dir))
			if err == nil {
				err = mmapDB.Prepare(ctx)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: warm start: %w", name, err)
		}
		for _, db := range []*trussdiv.DB{warmDB, mmapDB} {
			if st := db.StoreStatus(); !st.Warm || st.LoadErr != nil {
				return fmt.Errorf("%s: %v warm open did not trust the store (warm=%v, err=%v)",
					name, st.Mode, st.Warm, st.LoadErr)
			}
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
		decode, mmap := warm[0], warm[1]
		speedup := float64(cold[0].NS) / float64(max(decode.NS, 1))
		mmapSpeedup := float64(decode.NS) / float64(max(mmap.NS, 1))
		report.Datasets = append(report.Datasets, StoreDatasetReport{
			Name:               name,
			Vertices:           g.N(),
			Edges:              g.M(),
			ColdStartNS:        cold[0].NS,
			ColdStartMinNS:     cold[0].MinNS,
			ColdStartMaxNS:     cold[0].MaxNS,
			WarmStartNS:        decode.NS,
			WarmMmapNS:         mmap.NS,
			FileBytes:          info.Size(),
			Speedup:            speedup,
			MmapSpeedup:        mmapSpeedup,
			WarmAllocBytes:     decode.BytesPerOp,
			WarmMmapAllocBytes: mmap.BytesPerOp,
		})
		t.AddRow(name, time.Duration(cold[0].NS), time.Duration(decode.NS), time.Duration(mmap.NS),
			fmt.Sprintf("%d B", info.Size()), fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.2fx", mmapSpeedup))
	}
	t.Fprint(w)
	path, err := writeArtifact(cfg, StoreReportFile, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}
