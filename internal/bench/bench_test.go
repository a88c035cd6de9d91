package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

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

// TestParallelExperimentEmitsJSON runs the quick-mode parallel
// experiment and checks the machine-readable BENCH_parallel.json
// artifact: complete per-engine samples with positive wall times, so the
// perf trajectory has a baseline to diff against from this PR on.
func TestParallelExperimentEmitsJSON(t *testing.T) {
	e, ok := ByID("parallel")
	if !ok {
		t.Fatal("parallel experiment not registered")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, Workers: 4, OutDir: dir, Datasets: []string{"wiki-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, ParallelReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var report ParallelReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_parallel.json is not valid JSON: %v", err)
	}
	if report.Workers != 4 || report.GOMAXPROCS < 1 {
		t.Fatalf("report header = %+v", report)
	}
	if len(report.Datasets) != 1 || report.Datasets[0].Name != "wiki-sim" {
		t.Fatalf("datasets = %+v", report.Datasets)
	}
	engines := map[string]bool{}
	for _, s := range report.Datasets[0].Engines {
		if s.SerialNS <= 0 || s.ParallelNS <= 0 || s.Speedup <= 0 {
			t.Fatalf("sample %+v has non-positive timings", s)
		}
		engines[s.Engine] = true
	}
	for _, name := range []string{"online", "bound", "tsd", "gct", "hybrid"} {
		if !engines[name] {
			t.Fatalf("engine %s missing from report (got %v)", name, engines)
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
// one small dataset and checks the BENCH_store.json artifact: the warm
// path must have been measured (and implicitly, its answers verified
// against the cold path — the experiment fails otherwise).
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
	if ds.ColdStartNS <= 0 || ds.WarmStartNS <= 0 || ds.FileBytes <= 0 {
		t.Fatalf("implausible sample %+v", ds)
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

// TestMeasuresExperimentEmitsJSON runs the quick-mode measures
// experiment on one small dataset and checks the BENCH_measures.json
// artifact: every (dataset, measure) row must carry positive timings and
// the Verified flag — the experiment itself fails when any engine's
// answer diverges from the online reference, so a written artifact means
// the parity held.
func TestMeasuresExperimentEmitsJSON(t *testing.T) {
	e, ok := ByID("measures")
	if !ok {
		t.Fatal("measures experiment not registered")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, OutDir: dir, Datasets: []string{"wiki-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, MeasuresReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var report MeasuresReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_measures.json is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, row := range report.Rows {
		if row.Dataset != "wiki-sim" {
			t.Fatalf("unexpected dataset %q", row.Dataset)
		}
		if row.OnlineNS <= 0 || row.BoundNS <= 0 || row.RankedNS <= 0 || row.PrepareNS <= 0 {
			t.Fatalf("row %+v has non-positive timings", row)
		}
		if !row.Verified {
			t.Fatalf("row %+v not verified", row)
		}
		seen[row.Measure] = true
	}
	for _, m := range []string{"truss", "component", "core"} {
		if !seen[m] {
			t.Fatalf("measure %s missing from the report (rows: %+v)", m, report.Rows)
		}
	}
	// The -measure flag narrows the run to one measure.
	one := Config{Quick: true, Seed: 1, OutDir: t.TempDir(), Datasets: []string{"wiki-sim"}, Measure: "core"}
	if err := e.Run(&buf, one); err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(filepath.Join(one.OutDir, MeasuresReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var narrowed MeasuresReport
	if err := json.Unmarshal(blob, &narrowed); err != nil {
		t.Fatal(err)
	}
	if len(narrowed.Rows) != 1 || narrowed.Rows[0].Measure != "core" {
		t.Fatalf("-measure core produced rows %+v", narrowed.Rows)
	}
	if _, err := measuresUnderTest(Config{Measure: "bogus"}); err == nil {
		t.Fatal("bad -measure value accepted")
	}
}

// TestPFreeExperimentEmitsJSON runs the quick-mode pfree experiment on
// one small dataset and checks the BENCH_pfree.json artifact: every
// (dataset, measure) row must carry positive timings and the Verified
// flag — the experiment fails when the prepared path's answer diverges
// from the online fallback, so a written artifact means the parity held.
func TestPFreeExperimentEmitsJSON(t *testing.T) {
	e, ok := ByID("pfree")
	if !ok {
		t.Fatal("pfree experiment not registered")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Quick: true, Seed: 1, OutDir: dir, Datasets: []string{"wiki-sim"}}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, PFreeReportFile))
	if err != nil {
		t.Fatal(err)
	}
	var report PFreeReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_pfree.json is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, row := range report.Rows {
		if row.Dataset != "wiki-sim" {
			t.Fatalf("unexpected dataset %q", row.Dataset)
		}
		if row.OnlineNS <= 0 || row.RankedNS <= 0 || row.PrepareNS <= 0 {
			t.Fatalf("row %+v has non-positive timings", row)
		}
		if !row.Verified {
			t.Fatalf("row %+v not verified", row)
		}
		seen[row.Measure] = true
	}
	for _, m := range []string{"truss", "component", "core"} {
		if !seen[m] {
			t.Fatalf("measure %s missing from the report (rows: %+v)", m, report.Rows)
		}
	}
}
