// Command tsdbench regenerates the tables and figures of the paper's
// evaluation (§7) on the synthetic dataset substitutes.
//
// Usage:
//
//	tsdbench -exp table2                  # one experiment
//	tsdbench -exp all -quick              # everything, small datasets
//	tsdbench -exp all -timeout 5m         # bound the whole run
//	tsdbench -exp dynamic                 # incremental Apply vs cold rebuild, batches of 1/16/256
//	tsdbench -exp dynamic -updates 32     # the same at one batch size
//	tsdbench -exp measures                # serving cost per engine and measure, serial vs parallel (BENCH_measures.json)
//	tsdbench -exp measures -measure core  # one measure's engines only
//	tsdbench -list                        # show available experiment IDs
//	tsdbench -exp measures -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// The dynamic experiment writes BENCH_dynamic.json (DB.Apply vs rebuild
// per dataset and batch size) into -outdir, recording the perf trajectory
// of the mutable-graph write path, and the measures experiment writes
// BENCH_measures.json: one row per engine of every measure's
// routing-matrix row (the parameter-free pfree engine at k = 0, the
// others at k = 4) with its first query, Prepare and prepared queries.
// On more than one core each row also times its prepared query with
// contexts serial against the default worker pool, and each dataset its
// truss decomposition serial against parallel: the perf trajectory of
// the worker-pool layer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"trussdiv/internal/bench"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment ID to run (see -list), or 'all'")
		quick   = flag.Bool("quick", false, "small datasets and fewer Monte-Carlo runs")
		seed    = flag.Int64("seed", 1, "base RNG seed for simulations")
		runs    = flag.Int("mcruns", 0, "Monte-Carlo cascade count (0 = default)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		timeout = flag.Duration("timeout", 0, "abort the whole run after this long (0 = none)")
		updates = flag.Int("updates", 0, "edits per Apply batch for the dynamic experiment (0 = sweep 1, 16 and 256)")
		measure = flag.String("measure", "", "restrict the measures experiment to one diversity measure: truss|component|core (default: all)")
		outDir  = flag.String("outdir", "", "directory for machine-readable artifacts like BENCH_measures.json (default: working dir)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %-9s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdbench:", err)
		os.Exit(1)
	}
	// A missing -outdir is created by the artifact writer (bench.writeArtifact)
	// at first use, so a fresh checkout or CI workspace needs no mkdir.
	cfg := bench.Config{Quick: *quick, Seed: *seed, MCRuns: *runs, Updates: *updates, Measure: *measure, OutDir: *outDir}
	err = runWithDeadline(*timeout, func() error { return run(*expID, cfg) })
	stopProfiles() // flush before any exit path: os.Exit skips defers
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdbench:", err)
		os.Exit(1)
	}
}

// startProfiles wires the optional -cpuprofile / -memprofile outputs.
// The returned stop function ends CPU sampling and snapshots the heap
// (post-GC, so the profile shows retention rather than churn).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tsdbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tsdbench: -memprofile:", err)
			}
		}
	}, nil
}

func run(expID string, cfg bench.Config) error {
	if expID == "all" {
		return bench.RunAll(os.Stdout, cfg)
	}
	e, ok := bench.ByID(expID)
	if !ok {
		return fmt.Errorf("unknown experiment %q; known: %v", expID, bench.IDs())
	}
	fmt.Printf("### %s (%s): %s\n\n", e.ID, e.Paper, e.Description)
	return e.Run(os.Stdout, cfg)
}

// runWithDeadline bounds f by the -timeout flag. The experiment harness
// predates context plumbing, so the bound is process-level: when the
// deadline passes the run is abandoned and the process exits non-zero.
func runWithDeadline(timeout time.Duration, f func() error) error {
	if timeout <= 0 {
		return f()
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("run exceeded -timeout %v: %w", timeout, ctx.Err())
	}
}
