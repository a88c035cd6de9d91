package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"trussdiv/internal/core"
)

// Config controls experiment scale.
type Config struct {
	Quick    bool     // small datasets, fewer Monte-Carlo runs
	Seed     int64    // base RNG seed for simulations
	MCRuns   int      // Monte-Carlo cascades (0 = default)
	Datasets []string // override the per-figure dataset choice (tests)
	Updates  int      // edits per Apply batch for the dynamic experiment (0 = sweep 1, 16, 256)
	Measure  string   // restrict the measures experiment to one measure ("" = all)
	OutDir   string   // where machine-readable artifacts land ("" = working dir)
}

func (c Config) tier() int {
	if c.Quick {
		return 1
	}
	return 2
}

func (c Config) runs() int {
	if c.MCRuns > 0 {
		return c.MCRuns
	}
	if c.Quick {
		return 300
	}
	return 2000
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

// perfDatasets picks the three networks the paper's Fig. 8-11 use
// (Gowalla, LiveJournal, Orkut) or their small-tier stand-ins, unless the
// caller overrode the choice.
func (c Config) perfDatasets() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	if c.Quick {
		return []string{"wiki-sim", "enron-sim", "gowalla-sim"}
	}
	return []string{"gowalla-sim", "livejournal-sim", "orkut-sim"}
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID          string
	Paper       string // which artifact this reproduces
	Description string
	Run         func(w io.Writer, cfg Config) error
}

var experiments = []Experiment{
	{"table1", "Table 1", "network statistics of every dataset", runTable1},
	{"fig3", "Figure 3", "edge-trussness distribution on four networks", runFig3},
	{"table2", "Table 2", "runtime and search space of baseline/bound/TSD (k=3, r=100)", runTable2},
	{"fig8", "Figure 8", "runtime vs k for all six methods", runFig8},
	{"fig9", "Figure 9", "search space vs k for baseline/bound/TSD", runFig9},
	{"table3", "Table 3", "index size, construction time, query time: TSD vs GCT", runTable3},
	{"table4", "Table 4", "ego-network extraction and decomposition time: TSD vs GCT", runTable4},
	{"fig10", "Figure 10", "TSD runtime varying k and r", runFig10},
	{"fig11", "Figure 11", "Hybrid vs GCT varying r", runFig11},
	{"fig12", "Figure 12", "scalability on power-law graphs", runFig12},
	{"fig13", "Figure 13", "activation rate vs truss-diversity score interval", runFig13},
	{"fig14", "Figure 14", "activated count among top-r per diversity model", runFig14},
	{"fig15", "Figure 15", "activation latency of top-100 results per model", runFig15},
	{"fig18", "Figure 18", "TCP-index vs TSD-index comparison on the paper's example", runFig18},
	{"exp10", "Figure 16", "case study: Truss-Div top-1 ego-network on DBLP-sim", runExp10},
	{"exp11", "Figure 17", "case study: Comp-Div and Core-Div top-1 on DBLP-sim", runExp11},
	{"table5", "Table 5", "ego-network quality statistics of the top-1 results", runTable5},
	{"ltcheck", "extension", "Fig. 14 robustness check under the Linear Threshold model", runLTCheck},
	{"store", "extension", "cold build vs warm index-store load at startup; writes BENCH_store.json", runStore},
	{"dynamic", "extension", "incremental DB.Apply vs cold rebuild under edge updates; writes BENCH_dynamic.json", runDynamic},
	{"measures", "extension", "top-r serving per engine and measure (pfree at k=0): first query, prepare, prepared queries, serial vs parallel on >1 core; writes BENCH_measures.json", runMeasures},
}

// All returns every registered experiment in paper order.
func All() []Experiment { return experiments }

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, writing to w.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range experiments {
		fmt.Fprintf(w, "### %s (%s): %s\n\n", e.ID, e.Paper, e.Description)
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
	}
	return nil
}

// writeArtifact marshals a machine-readable report into cfg.OutDir
// (created if missing) and returns the path written.
func writeArtifact(cfg Config, file string, report any) (string, error) {
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return "", fmt.Errorf("bench: %w", err)
		}
	}
	path := filepath.Join(cfg.OutDir, file)
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return path, nil
}

// IDs returns the sorted experiment identifiers (for CLI help).
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
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
