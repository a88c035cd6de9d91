# Tier-1 verification is `make check`: vet, build, and test everything —
# at the machine's core count and again pinned to one core.
# `make check-race` re-runs the suite under the race detector — required
# for changes touching the parallel search layer, DB.Batch, or the
# mutable-graph write path (the root-package apply/snapshot tests,
# e.g. TestConcurrentReadersDuringApply, run under it).
# `make ci` is the umbrella the GitHub workflow runs: formatting gate
# plus the tier-1 checks, plus vet and tests of the loadbench module,
# plus one run of every example program.
# `make lines` prints the ROADMAP's size metric: non-test Go lines outside
# loadbench/ (informational, not a gate).
GO ?= go

.PHONY: ci check loadbench-check examples check-race fmt-check lint vet build test test-1cpu bench bench-allocs bench-dynamic bench-artifacts cover fuzz lines

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

lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './loadbench/*' | xargs cat | wc -l

# Quick-mode paper benchmarks (full versions: go run ./cmd/tsdbench).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Allocation regression gate: the AllocsPerRun suites pin the scoring hot
# path — ego extraction (its position marker grows once, to the largest N
# the scratch serves; alternating between a larger and a smaller graph
# after that allocates nothing), ego-network truss decomposition in both of the
# peel's support modes (merge and bitmap, alternating on one scratch) and
# the single-k peel (KTrussInto and DecomposeInto alternating over growing
# and shrinking ego-networks, TestKTrussIntoAllocFree),
# per-vertex scoring under every measure, every DB point query (the GCT
# index, the shared scorer, and the parameter-free branches), and query
# routing (Route and
# ResolveEngine) — at zero steady-state allocations, and context
# recovery under every measure at exactly its two output allocations
# (the flat member array and the group headers). The graph edit of one
# 8+8 batch (core.ApplyEdits, the CSR splice) makes the same fixed number
# of allocations on a small and a ten times larger graph, and PatchAll's
# copy-on-write of the TSD and GCT entries of one 8+8 batch allocates
# within 1.5x the bytes on a graph and on the same graph padded with ten
# times as many isolated vertices: it copies the page table and the
# pages the batch touches, never all n entries. The ranking splice of one
# 8+8 batch (the three measures' tables, each with its parameter-free
# row 0) allocates within 1.5x the bytes
# on a graph and on that graph padded with nine disjoint copies of
# itself: it copies the chunk tables of the rankings the batch moves and
# the chunks it touches, never whole rankings. The truss repair
# tripwire holds an 8-insertion Repair to 1.5x the bytes of a 1-insertion
# one; Apply no longer calls Repair, so it guards only the subject of the
# loadbench replay. A /topr answer the result cache holds makes the same
# number of allocations through the server's Handler at r = 5 and at
# r = 200: the hand encoder writes every result into one pooled buffer.
# Fast enough to run on every change.
bench-allocs:
	$(GO) test -run 'AllocFree|RepairAllocs|ContextsAllocs|ApplyEditsAllocs|PatchAllAllocs|SpliceAllocs|TopRAllocs' -count=1 -v . ./internal/ego ./internal/core ./internal/truss ./internal/server

# Incremental Apply vs cold rebuild, plus the first bound query after each
# apply; writes BENCH_dynamic.json.
bench-dynamic:
	$(GO) run ./cmd/tsdbench -exp dynamic -quick

# Quick-mode machine-readable benchmarks; CI uploads bench-out/BENCH_*.json
# as a build artifact so the perf trajectory is tracked per commit.
bench-artifacts:
	$(GO) run ./cmd/tsdbench -exp store -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp dynamic -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp measures -quick -outdir bench-out

cover:
	$(GO) test -cover ./...

# Each fuzz target runs for 15s from its seed corpus: the edge-list loader
# (internal/graph/testdata/fuzz; every parsed graph's triangle listing is
# held to a naive oracle: Supports, TrianglesPerVertex, CountTriangles,
# ForEachTriangle, and two SupportsInto calls over one marker that must
# agree and leave it clear), the binary graph reader, ego extraction
# through one scratch across two graphs of different N (seeded with the
# Fig. 1 graph and an empty graph), ego-network truss decomposition (one
# small graph and its ego-networks through one scratch: DecomposeInto
# against Decompose, KTrussInto against both at every k, the listing
# marker clear after every call), the index-file reader, seeded from the
# store goldens, the POST /edges and /batch bodies
# (internal/server/testdata/fuzz), the raw query strings of GET /topr,
# /score and /contexts (seeded with TestValidationErrors' URLs; these
# and the /batch fuzzer re-encode every 200 body from the reference
# shapes of the hand encoder, byte for byte), and
# Apply parity (up to four edit
# batches, bad edits included, on a DB with every engine prepared: each
# accepted batch must answer every engine x measure x k like a cold Open
# and a warm reopen in both store modes; seeded with the stream tests'
# batch shapes). `go test -fuzz` takes one target per run.
# -fuzzminimizetime 5x caps the minimization of each new interesting
# input at 5 runs: under the default 60 s, one slow FuzzApplyParity input
# (tens of ms per run) is minimized for the whole 15 s budget.
fuzz:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzLoadEdgeList -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzReadBinary -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/ego -run '^$$' -fuzz FuzzExtractOneInto -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/truss -run '^$$' -fuzz FuzzDecomposeInto -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzOpenFile -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzEdgesBody -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzBatchBody -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzQueryParams -fuzztime 15s -fuzzminimizetime 5x
	$(GO) test . -run '^$$' -fuzz FuzzApplyParity -fuzztime 15s -fuzzminimizetime 5x
