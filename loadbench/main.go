// Command loadbench is the repository's load benchmark. It drives the
// structural diversity service in one process through its public entry
// points — the internal/server HTTP handler, called in-process with no
// sockets, and the trussdiv facade — on one of three seeded workloads,
// checks the answers, and prints every metric by name with its unit. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash loadbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is a separate traced run that reports the per-layer metrics instead.
// README.md describes the workloads and both metric dictionaries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"trussdiv"
)

var ctxBG = context.Background()

// config is everything a run depends on. defaultConfig is the benchmark;
// the smoke test shrinks it.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the load runs
	trace    bool
	out      string // index stores and the span dump go here

	graph       trussdiv.OverlayConfig
	fingerprint string // the graph's, checked before any load
	clients     int    // concurrent load goroutines, never more than the cores
	keys        keySizes
	writeEvery  time.Duration // one edit batch falls due this often
	scanCap     int           // candidate-set cap of a scan query
	traceReads  int64         // cap on the traced run's reads
}

var workloads = []string{"serve-read", "serve-write", "adhoc-scan"}

func defaultConfig(workload string, seed int64, window time.Duration, trace bool, out string) config {
	return config{
		workload:    workload,
		seed:        seed,
		window:      window,
		trace:       trace,
		out:         out,
		graph:       gowallaSim,
		fingerprint: gowallaSimFingerprint,
		clients:     min(2, runtime.GOMAXPROCS(0)),
		keys:        keySizes{score: 8000, contexts: 4000, batch: 1000},
		writeEvery:  400 * time.Millisecond,
		scanCap:     3000,
		traceReads:  40000,
	}
}

// seqLen sizes the read sequence to outlast the window at well above the
// measured request rate; a longer run wraps around.
func (c config) seqLen() int { return 1000 + int(c.window.Seconds()*40000) }

// batches is the number of edit batches that fall due within the window.
func (c config) batches() int { return int(c.window/c.writeEvery) + 1 }

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	g := trussdiv.CommunityOverlay(cfg.graph)
	if err := checkFingerprint(g, cfg.fingerprint); err != nil {
		return nil, err
	}
	fmt.Printf("loadbench: graph %d vertices, %d edges\n", g.N(), g.M())
	switch {
	case cfg.trace:
		return tracedRun(cfg, g)
	case cfg.workload == "serve-read":
		return serveRead(cfg, g)
	case cfg.workload == "serve-write":
		return serveWrite(cfg, g)
	default:
		return adhocScan(cfg, g)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-read, serve-write or adhoc-scan")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the load window")
		trace    = flag.Int("trace", 0, "1 makes a traced run reporting the per-layer metrics")
		out      = flag.String("out", ".bench_build/loadbench", "directory for index stores and the span dump")
	)
	flag.Parse()
	fmt.Printf("loadbench: seed=%d workload=%s seconds=%g trace=%d\n", *seed, *workload, *seconds, *trace)
	if err := validate(*workload, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	res, err := run(defaultConfig(*workload, *seed, window, *trace == 1, *out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	if err := res.print(os.Stdout, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func validate(workload string, seconds float64, trace int) error {
	switch {
	case !slices.Contains(workloads, workload):
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	case seconds <= 0:
		return errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	return nil
}
