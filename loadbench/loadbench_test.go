package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trussdiv"
)

// tinyConfig shrinks the benchmark to a small overlay graph and
// sub-second load windows, keeping every workload's shape.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 7, 150*time.Millisecond, trace, t.TempDir())
	cfg.graph = trussdiv.OverlayConfig{N: 1500, Attach: 3, Cliques: 150, MinSize: 4, MaxSize: 10,
		Window: 80, AnchorBias: 0.5, Diffuse: 30, Seed: 7}
	cfg.fingerprint = tinyFingerprint
	cfg.clients = 2
	cfg.keys = keySizes{score: 200, contexts: 100, batch: 20}
	cfg.writeEvery = 30 * time.Millisecond
	cfg.scanCap = 300
	cfg.traceReads = 2000
	return cfg
}

// exercised lists, per workload, per-layer metrics its traced run must
// measure (report non-zero).
var exercised = map[string][]string{
	"serve-read": {"http.topr_self_us_p50", "http.point_self_us_p50", "route.ns_p50", "cache.hit_ratio",
		"cache.hit_us_p50", "engine.ranked_us_p50", "engine.point_us_p50", "contexts.us_p50",
		"setup.build_s", "setup.save_s", "setup.open_ms", "store.file_mb", "trace.overhead_ratio"},
	"serve-write": {"http.topr_self_us_p50", "route.ns_p50", "cache.invalidated_per_apply",
		"apply.graph_edit_ms", "apply.truss_repair_ms", "apply.rescore_ms", "apply.affected",
		"apply.rankings_patched", "scan.extract_ns_per_vertex", "setup.build_s", "setup.open_ms",
		"bg.read_p50_us", "trace.overhead_ratio"},
	"adhoc-scan": {"route.ns_p50", "cache.miss_us_p50", "engine.score_computations_per_query",
		"scan.extract_ns_per_vertex", "scan.decompose_truss_ns_per_vertex", "scan.kernel_share",
		"setup.build_s", "trace.overhead_ratio"},
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, w, trace)
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				got := printed(t, res, w)
				if len(got.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, want %d", len(got.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := got.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.name)
					case m.Unit != s.unit:
						t.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
				if trace {
					for _, name := range exercised[w] {
						if got.Metrics[name].Value == 0 {
							t.Errorf("per-layer metric %s was not measured", name)
						}
					}
					checkSpans(t, filepath.Join(cfg.out, "trace-"+w+".jsonl"))
				}
			})
		}
	}
}

// printed renders res as the benchmark prints it and parses the last line.
func printed(t *testing.T, res *result, workload string) result {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf, workload); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the JSON verdict: %v", err)
	}
	return got
}

// checkSpans reads a span dump back and checks the tree: every parent
// exists in the same request and pass, and no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Self < 0 {
			t.Errorf("span %d (%s) has self time %d", s.ID, s.Name, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || p.Pass != s.Pass {
			t.Errorf("span %d (%s): no parent %d in its request", s.ID, s.Name, s.Parent)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogs and the
// workload list in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(specs))
			return
		}
		for i, s := range specs {
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, s.name, s.unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// tinyFingerprint is the fingerprint of the smoke test's graph.
const tinyFingerprint = "cb43570e42c4f3a5da5dc650d26a067c4dd8fe5d22b61ea8dd27681480f42884"

// TestGraphPinned checks the benchmark graph's fingerprint, so a generator
// change that would alter the benchmark's input fails here as well as in
// every run.
func TestGraphPinned(t *testing.T) {
	if err := checkFingerprint(trussdiv.CommunityOverlay(gowallaSim), gowallaSimFingerprint); err != nil {
		t.Fatal(err)
	}
}
