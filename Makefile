# Tier-1 verification is `make check`: vet, build, and test everything —
# at the machine's core count and again pinned to one core.
# `make check-race` re-runs the suite under the race detector — required
# for changes touching the parallel search layer, DB.Batch, or the
# mutable-graph write path (the root-package apply/snapshot tests,
# e.g. TestConcurrentReadersDuringApply, run under it).
# `make ci` is the umbrella the GitHub workflow runs: formatting gate
# plus the tier-1 checks, plus vet and tests of the loadbench module,
# plus one run of every example program.
GO ?= go

.PHONY: ci check loadbench-check examples check-race fmt-check lint vet build test test-1cpu bench bench-allocs bench-parallel bench-dynamic bench-artifacts check-parallel-baseline cover fuzz

ci: fmt-check lint check loadbench-check examples

check: vet build test test-1cpu

# Static analysis beyond vet. staticcheck is optional locally (the CI
# workflow installs it); when absent the target degrades to vet alone
# with a notice rather than failing offline checkouts.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran vet only" \
			"(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Fails (listing the offenders) when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loadbench is its own module (it imports internal packages through a
# replace directive), so `./...` above never builds it; vet and test it
# here so an internal API change cannot break the benchmark unnoticed.
loadbench-check:
	cd loadbench && $(GO) vet ./... && $(GO) test ./...

# Runs every program under examples/ once; each checks its own output and
# exits non-zero on a mismatch. The index-store demos write only to
# os.MkdirTemp directories.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		out="$$($(GO) run ./$$d 2>&1)" || { echo "$$out"; exit 1; }; \
	done

check-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite again on one core: answers and search-space counts must not
# depend on the core count, and single-core runs take the serial paths.
# -count=1 because the test cache does not key on GOMAXPROCS.
test-1cpu:
	GOMAXPROCS=1 $(GO) test -count=1 ./...

# Quick-mode paper benchmarks (full versions: go run ./cmd/tsdbench).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Allocation regression gate: the AllocsPerRun suites pin the scoring hot
# path — ego extraction, per-vertex scoring under every measure, every
# DB point query (the GCT index, the shared scorer, and the
# parameter-free branches), and query routing (Route and
# ResolveEngine) — at zero steady-state allocations. The truss repair
# tripwire holds an 8-insertion Repair to 1.5x the bytes of a 1-insertion
# one; Apply no longer calls Repair, so it guards only the subject of the
# loadbench replay. Fast enough to run on every change.
bench-allocs:
	$(GO) test -run 'AllocFree|RepairAllocs' -count=1 -v . ./internal/ego ./internal/core ./internal/truss

# Serial-vs-parallel engine timings; writes BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/tsdbench -exp parallel -quick

# Incremental Apply vs cold rebuild, plus the first bound query after each
# apply; writes BENCH_dynamic.json.
bench-dynamic:
	$(GO) run ./cmd/tsdbench -exp dynamic -quick

# Quick-mode machine-readable benchmarks; CI uploads bench-out/BENCH_*.json
# as a build artifact so the perf trajectory is tracked per commit.
bench-artifacts:
	$(GO) run ./cmd/tsdbench -exp parallel -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp store -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp dynamic -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp measures -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp pfree -quick -outdir bench-out

# Fails when bench-out/BENCH_parallel.json came from a GOMAXPROCS=1 run —
# CI runs this right after bench-artifacts so a single-core parallel
# baseline can never be published as the perf trajectory.
check-parallel-baseline:
	bash scripts/check_parallel_baseline.sh bench-out/BENCH_parallel.json

cover:
	$(GO) test -cover ./...

# Each fuzz target runs for 15s from its seed corpus: the edge-list loader
# (internal/graph/testdata/fuzz), the index-file reader, seeded from the
# store goldens, and the POST /edges and /batch bodies
# (internal/server/testdata/fuzz). `go test -fuzz` takes one target per run.
fuzz:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzLoadEdgeList -fuzztime 15s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzOpenFile -fuzztime 15s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzEdgesBody -fuzztime 15s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzBatchBody -fuzztime 15s
