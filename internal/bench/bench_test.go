package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"trussdiv"
	"trussdiv/internal/baseline"
	"trussdiv/internal/core"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
	}
	tb.AddRow("x", 12)
	tb.AddRow("longer", 3.5)
	tb.AddRow("dur", 1500*time.Millisecond)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "longer", "3.50", "1.50s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Microsecond, "0.50ms"},
		{42 * time.Millisecond, "42.0ms"},
		{2500 * time.Millisecond, "2.50s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	if got := FormatBytes(2 << 20); got != "2.0MB" {
		t.Errorf("FormatBytes = %q", got)
	}
	if got := FormatBytes(1536); got != "1.5KB" {
		t.Errorf("FormatBytes = %q", got)
	}
	if got := FormatBytes(12); got != "12B" {
		t.Errorf("FormatBytes = %q", got)
	}
}

func TestDatasetRegistry(t *testing.T) {
	small := Datasets(1)
	all := Datasets(2)
	if len(small) == 0 || len(all) <= len(small) {
		t.Fatalf("tiering wrong: %d small, %d all", len(small), len(all))
	}
	g1, err := Load("wiki-sim")
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := Load("wiki-sim")
	if g1 != g2 {
		t.Fatal("dataset cache not reused")
	}
	if _, err := Load("no-such-dataset"); err == nil {
		t.Fatal("unknown dataset should error")
	}
	if len(DatasetNames()) != len(all) {
		t.Fatal("DatasetNames length mismatch")
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Paper == "" || e.Description == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("table2"); !ok {
		t.Fatal("table2 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID resolved")
	}
	if _, ok := ByID("pfree"); ok {
		t.Fatal("pfree is registered on its own; its cells belong to the measures experiment")
	}
	if _, ok := ByID("parallel"); ok {
		t.Fatal("parallel is registered on its own; its pairs belong to the measures experiment")
	}
	if len(IDs()) != len(All()) {
		t.Fatal("IDs length mismatch")
	}
}

// TestCaseStudyShape locks in the paper's Table 5 phenomenon on the
// deterministic dblp-sim graph: the three models choose different top-1
// authors with context counts 8 (Comp), 3 (Core), 6 (Truss); the Truss-Div
// winner's ego-network is ONE connected component that only the truss model
// decomposes; and it is the densest of the three.
func TestCaseStudyShape(t *testing.T) {
	g := Collab()
	trussV, compV, coreV, err := caseStudyTop1(g)
	if err != nil {
		t.Fatal(err)
	}
	if trussV == compV || trussV == coreV || compV == coreV {
		t.Fatalf("winners should differ: truss=%d comp=%d core=%d", trussV, compV, coreV)
	}
	const k = 5
	scorer := core.NewScorer(g)
	if got := scorer.Score(trussV, k); got != 6 {
		t.Fatalf("Truss-Div winner score = %d, want 6", got)
	}
	if got := baseline.NewCompDiv(g).Score(compV, k); got != 8 {
		t.Fatalf("Comp-Div winner score = %d, want 8", got)
	}
	if got := baseline.NewCoreDiv(g).Score(coreV, k); got != 3 {
		t.Fatalf("Core-Div winner score = %d, want 3", got)
	}
	// The truss winner's ego is connected, yet Comp/Core see one context.
	if got := baseline.NewCompDiv(g).Score(trussV, k); got != 1 {
		t.Fatalf("Comp-Div on truss winner = %d, want 1 (bridged blob)", got)
	}
	if got := baseline.NewCoreDiv(g).Score(trussV, k); got != 1 {
		t.Fatalf("Core-Div on truss winner = %d, want 1 (bridged 5-cores)", got)
	}
	// Density ordering: truss winner densest (paper Table 5).
	_, _, dTruss := egoStats(g, trussV)
	_, _, dComp := egoStats(g, compV)
	_, _, dCore := egoStats(g, coreV)
	if !(dTruss > dCore && dCore > dComp) {
		t.Fatalf("density ordering wrong: truss %.2f, core %.2f, comp %.2f",
			dTruss, dCore, dComp)
	}
}

func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Config{Quick: true, Seed: 1, MCRuns: 120}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return buf.String()
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments skipped in -short")
	}
	out := runQuick(t, "table1")
	for _, name := range []string{"wiki-sim", "gowalla-sim", "tau*_G"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table1 output missing %q", name)
		}
	}
}

func TestRunTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments skipped in -short")
	}
	out := runQuick(t, "table2")
	if !strings.Contains(out, "Rt") || !strings.Contains(out, "sp.TSD") {
		t.Fatalf("table2 output malformed:\n%s", out)
	}
}

func TestRunFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments skipped in -short")
	}
	out := runQuick(t, "fig3")
	if !strings.Contains(out, "trussness") {
		t.Fatal("fig3 output malformed")
	}
}

func TestRunFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments skipped in -short")
	}
	out := runQuick(t, "fig11")
	if !strings.Contains(out, "Hybrid") || !strings.Contains(out, "GCT") {
		t.Fatal("fig11 output malformed")
	}
}

func TestRunCaseStudyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments skipped in -short")
	}
	out := runQuick(t, "exp10")
	if !strings.Contains(out, "score(v*) = 6") {
		t.Fatalf("exp10 output missing expected score:\n%s", out)
	}
	out = runQuick(t, "exp11")
	if !strings.Contains(out, "Comp-Div top-1") || !strings.Contains(out, "Core-Div top-1") {
		t.Fatal("exp11 output malformed")
	}
	out = runQuick(t, "table5")
	if !strings.Contains(out, "Act.Prob") {
		t.Fatal("table5 output malformed")
	}
}

// runTiny exercises an experiment runner on the smallest dataset with a
// minimal cascade budget, covering the heavy per-figure code paths.
func runTiny(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, MCRuns: 40, Datasets: []string{"wiki-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return buf.String()
}

func TestRunFigureExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiments skipped in -short")
	}
	for _, id := range []string{"fig9", "fig10", "fig13", "fig14", "fig15"} {
		out := runTiny(t, id)
		if !strings.Contains(out, "wiki-sim") {
			t.Fatalf("%s ignored the dataset override:\n%s", id, out)
		}
	}
}

func TestRunFig8Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiments skipped in -short")
	}
	out := runTiny(t, "fig8")
	for _, col := range []string{"baseline", "bound", "TSD", "GCT", "Comp-Div", "Core-Div"} {
		if !strings.Contains(out, col) {
			t.Fatalf("fig8 output missing %s column", col)
		}
	}
}

func TestRunFig18(t *testing.T) {
	out := runTiny(t, "fig18")
	for _, want := range []string{"TCP-index of q1", "TSD-index of q1", "(q2,q3)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig18 output missing %q", want)
		}
	}
}

func TestFig13Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	// With the seeded protocol the activation gradient across score
	// intervals must be increasing on gowalla-sim (the Fig. 13 claim).
	e, _ := ByID("fig13")
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, MCRuns: 300, Datasets: []string{"gowalla-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	var rates []float64
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && strings.HasPrefix(fields[0], "[") {
			var r float64
			if _, err := fmt.Sscanf(fields[2], "%f", &r); err == nil {
				rates = append(rates, r)
			}
		}
	}
	if len(rates) < 2 {
		t.Fatalf("could not parse interval rates from:\n%s", buf.String())
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("activation rates not increasing: %v", rates)
		}
	}
}

// TestStoreExperimentEmitsJSON runs the quick-mode store experiment on
// one small dataset and checks the BENCH_store.json artifact: the cold
// start must have been sampled (its median inside its spread) and the
// warm path measured (and implicitly, every cold run verified cold and
// the warm answers verified against the cold path — the experiment fails
// otherwise).
func TestStoreExperimentEmitsJSON(t *testing.T) {
	e, ok := ByID("store")
	if !ok {
		t.Fatal("store experiment not registered")
	}
	// A nested, not-yet-existing outdir doubles as the regression test for
	// artifact writes creating their target directory.
	dir := filepath.Join(t.TempDir(), "nested", "out")
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, OutDir: dir, Datasets: []string{"wiki-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, StoreReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var report StoreReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_store.json is not valid JSON: %v", err)
	}
	if len(report.Datasets) != 1 || report.Datasets[0].Name != "wiki-sim" {
		t.Fatalf("report datasets = %+v", report.Datasets)
	}
	ds := report.Datasets[0]
	if ds.ColdStartNS <= 0 || ds.WarmStartNS <= 0 || ds.WarmMmapNS <= 0 || ds.FileBytes <= 0 {
		t.Fatalf("implausible sample %+v", ds)
	}
	if ds.ColdStartMinNS <= 0 || ds.ColdStartMinNS > ds.ColdStartNS || ds.ColdStartNS > ds.ColdStartMaxNS {
		t.Fatalf("cold start median %d outside its spread [%d, %d]",
			ds.ColdStartNS, ds.ColdStartMinNS, ds.ColdStartMaxNS)
	}
	if ds.Speedup <= 0 {
		t.Fatalf("speedup %v not positive", ds.Speedup)
	}
}

// TestDynamicExperimentEmitsJSON runs the quick-mode dynamic experiment
// on one small dataset and checks the BENCH_dynamic.json artifact: every
// apply-vs-rebuild sample and the first bound query after each apply must
// have been measured (and implicitly, every engine × measure cell verified
// against a cold rebuild after every batch — the experiment fails
// otherwise).
func TestDynamicExperimentEmitsJSON(t *testing.T) {
	e, ok := ByID("dynamic")
	if !ok {
		t.Fatal("dynamic experiment not registered")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, Updates: 8, OutDir: dir, Datasets: []string{"wiki-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, DynamicReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var report DynamicReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_dynamic.json is not valid JSON: %v", err)
	}
	if !slices.Equal(report.BatchSizes, []int{8}) || report.GOMAXPROCS < 1 {
		t.Fatalf("batch_sizes = %v (gomaxprocs %d), want only the -updates override of 8",
			report.BatchSizes, report.GOMAXPROCS)
	}
	if len(report.Datasets) != 1 || report.Datasets[0].Name != "wiki-sim" {
		t.Fatalf("report datasets = %+v", report.Datasets)
	}
	ds := report.Datasets[0]
	if ds.Batches <= 0 || ds.ApplyNS <= 0 || ds.RebuildNS <= 0 || ds.FirstBoundNS <= 0 || ds.Repaired <= 0 {
		t.Fatalf("implausible sample %+v", ds)
	}
	if ds.Speedup <= 0 {
		t.Fatalf("speedup %v not positive", ds.Speedup)
	}
}

// measuresReport runs the quick-mode measures experiment on wiki-sim at
// GOMAXPROCS procs, narrowed to one measure unless measure is empty, and
// decodes the BENCH_measures.json it writes.
func measuresReport(t *testing.T, procs int, measure string) MeasuresReport {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	e, ok := ByID("measures")
	if !ok {
		t.Fatal("measures experiment not registered")
	}
	cfg := Config{Quick: true, Seed: 1, OutDir: t.TempDir(), Datasets: []string{"wiki-sim"}, Measure: measure}
	var buf bytes.Buffer
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(cfg.OutDir, MeasuresReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var report MeasuresReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_measures.json is not valid JSON: %v", err)
	}
	return report
}

// TestPFreeExperimentEmitsJSON checks the parameter-free cells of the
// measures experiment: one pfree row per measure, at k = 0, with a
// positive cold (online fallback) first query, Prepare cost and warm
// ranked query, the cold all-k scan's allocations recorded, and the
// prepared answer verified against the cold one.
func TestPFreeExperimentEmitsJSON(t *testing.T) {
	report := measuresReport(t, 1, "")
	seen := map[string]bool{}
	for _, row := range report.Rows {
		if row.Engine != "pfree" {
			continue
		}
		if row.Dataset != "wiki-sim" {
			t.Fatalf("unexpected dataset %q", row.Dataset)
		}
		if seen[row.Measure] {
			t.Fatalf("measure %s has more than one pfree row", row.Measure)
		}
		seen[row.Measure] = true
		if row.K != 0 {
			t.Fatalf("pfree row %+v ran at k = %d, want 0", row, row.K)
		}
		if row.First.NS <= 0 || row.PrepareNS <= 0 || row.Warm.NS <= 0 {
			t.Fatalf("row %+v has non-positive timings", row)
		}
		if row.First.AllocsPerOp <= 0 {
			t.Fatalf("row %+v records no allocations for the cold all-k scan", row)
		}
		if !row.Verified {
			t.Fatalf("row %+v not verified", row)
		}
	}
	for _, m := range []string{"truss", "component", "core"} {
		if !seen[m] {
			t.Fatalf("measure %s has no pfree row (rows: %+v)", m, report.Rows)
		}
	}
}

// TestMeasuresExperimentEmitsJSON runs the quick-mode measures
// experiment on one small dataset and checks the BENCH_measures.json
// artifact: every (measure, engine) cell of the routing matrix appears
// once, pfree at k = 0 and every other engine at k = 4, each with
// positive first and warm timings and the Verified flag — the
// experiment itself fails when any answer diverges from its reference,
// so a written artifact means the parity held. At GOMAXPROCS=2 every row
// carries its serial and parallel contexts query and the dataset its
// decompose pair, each a median inside its spread (the experiment fails
// when a pair's answers or tau arrays differ); at GOMAXPROCS=1 neither
// is written.
func TestMeasuresExperimentEmitsJSON(t *testing.T) {
	db, err := trussdiv.Open(MustLoad("wiki-sim"))
	if err != nil {
		t.Fatal(err)
	}
	// check holds the report's rows to exactly the catalogue's cells of
	// the given measures.
	check := func(report MeasuresReport, procs int, measures ...trussdiv.Measure) {
		t.Helper()
		if report.GOMAXPROCS != procs {
			t.Fatalf("report ran at GOMAXPROCS %d, want %d", report.GOMAXPROCS, procs)
		}
		spread := func(what string, op *Op) {
			t.Helper()
			if op == nil || op.MinNS <= 0 || op.MinNS > op.NS || op.NS > op.MaxNS {
				t.Fatalf("%s: median outside its spread or missing: %+v", what, op)
			}
		}
		if procs == 1 {
			if len(report.Decompose) != 0 {
				t.Fatalf("one-core run wrote decompose pairs %+v", report.Decompose)
			}
		} else {
			if len(report.Decompose) != 1 || report.Decompose[0].Dataset != "wiki-sim" {
				t.Fatalf("decompose pairs %+v, want one for wiki-sim", report.Decompose)
			}
			spread("decompose serial", &report.Decompose[0].Serial)
			spread("decompose parallel", &report.Decompose[0].Parallel)
		}
		want := map[string]bool{}
		for _, mi := range db.Measures() {
			if slices.Contains(measures, mi.Measure) {
				for _, engine := range mi.Engines {
					want[string(mi.Measure)+"/"+engine] = true
				}
			}
		}
		for _, row := range report.Rows {
			cell := row.Measure + "/" + row.Engine
			if row.Dataset != "wiki-sim" || !want[cell] {
				t.Fatalf("unexpected or repeated row %+v", row)
			}
			delete(want, cell)
			wantK := 4
			if row.Engine == "pfree" {
				wantK = 0
			}
			if row.K != wantK {
				t.Fatalf("row %+v ran at k = %d, want %d", row, row.K, wantK)
			}
			if row.First.NS <= 0 || row.Warm.NS <= 0 {
				t.Fatalf("row %+v has non-positive timings", row)
			}
			if !row.Verified {
				t.Fatalf("row %+v not verified", row)
			}
			if procs == 1 {
				if row.Serial != nil || row.Parallel != nil {
					t.Fatalf("one-core row %+v carries a serial/parallel pair", row)
				}
			} else {
				spread(cell+" serial", row.Serial)
				spread(cell+" parallel", row.Parallel)
			}
		}
		if len(want) > 0 {
			t.Fatalf("cells missing from the report: %v", want)
		}
	}
	all := measuresReport(t, 2, "")
	check(all, 2, trussdiv.AllMeasures()...)
	if len(all.PrepareAll) != 1 {
		t.Fatalf("prepare-all rows %+v, want one", all.PrepareAll)
	}
	// The -measure flag narrows the run to one measure's cells.
	core := measuresReport(t, 1, "core")
	check(core, 1, trussdiv.MeasureCore)
	if len(core.PrepareAll) != 0 {
		t.Fatalf("-measure core produced prepare-all rows %+v", core.PrepareAll)
	}
	if _, err := measuresUnderTest(Config{Measure: "bogus"}); err == nil {
		t.Fatal("bad -measure value accepted")
	}
}
