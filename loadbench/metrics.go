package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// metricSpec names one reported metric and its unit. The two catalogs
// below are the metrics BENCHMARK.json lists, in its order; the smoke test
// keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd is what an untraced run reports, for every workload. The
// latency metrics describe the workload's foreground operation: a read
// request on serve-read, an edge batch on serve-write, a scan on
// adhoc-scan.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer is what a traced run reports, for every workload. A layer the
// workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"http.topr_self_us_p50", "us"},
	{"http.point_self_us_p50", "us"},
	{"http.batch_self_us_p50", "us"},
	{"route.ns_p50", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hit_us_p50", "us"},
	{"cache.miss_us_p50", "us"},
	{"cache.invalidated_per_apply", "count"},
	{"engine.ranked_us_p50", "us"},
	{"engine.point_us_p50", "us"},
	{"contexts.us_p50", "us"},
	{"contexts.us_p99", "us"},
	{"engine.online_ms_p50", "ms"},
	{"engine.bound_ms_p50", "ms"},
	{"engine.pfree_scan_ms_p50", "ms"},
	{"engine.score_computations_per_query", "count"},
	{"bound.prune_ratio", "ratio"},
	{"scan.extract_ns_per_vertex", "ns"},
	{"scan.decompose_truss_ns_per_vertex", "ns"},
	{"scan.decompose_core_ns_per_vertex", "ns"},
	{"scan.label_comp_ns_per_vertex", "ns"},
	{"scan.count_ns_per_vertex", "ns"},
	{"scan.kernel_share", "ratio"},
	{"apply.graph_edit_ms", "ms"},
	{"apply.truss_repair_ms", "ms"},
	{"apply.rescore_ms", "ms"},
	{"apply.self_ms", "ms"},
	{"apply.affected", "count"},
	{"apply.truss_region_edges", "count"},
	{"apply.truss_fallback_ratio", "ratio"},
	{"apply.rankings_patched", "count"},
	{"setup.build_s", "s"},
	{"setup.save_s", "s"},
	{"setup.open_ms", "ms"},
	{"store.file_mb", "MiB"},
	{"load.write_lag_ms_p90", "ms"},
	{"bg.read_p50_us", "us"},
	{"bg.read_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: the JSON object printed as the last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	specs []metricSpec
}

// newResult starts a result reporting exactly specs, every value 0.
func newResult(specs []metricSpec) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(specs)), specs: specs}
	for _, s := range specs {
		r.Metrics[s.name] = metric{Unit: s.unit}
	}
	return r
}

// set records one metric; naming a metric outside the catalog is a bug.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("loadbench: metric " + name + " is not in the catalog")
	}
	m.Value = v
	r.Metrics[name] = m
}

// check records the outcome of one verified operation.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		fmt.Println("loadbench: verification failed:", err)
	}
}

// print writes one "workload metric value unit" line per metric, then the
// JSON verdict as the last line.
func (r *result) print(w io.Writer, workload string) error {
	for _, s := range r.specs {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, s.name,
			strconv.FormatFloat(r.Metrics[s.name].Value, 'g', -1, 64), s.unit)
	}
	fmt.Fprintf(w, "%s attempted %d\n%s failed %d\n", workload, r.Attempted, workload, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile[T time.Duration | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapMiB is the live Go heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}
