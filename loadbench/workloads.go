package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"trussdiv"
	"trussdiv/internal/server"
)

// allStructures is everything a serving replica prepares: what
// `tsdindex -measures` builds into a store offline.
var allStructures = []string{"bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"}

// Set-ups per run; setup_s is their median. A warm open takes about 2 ms
// and varies by half from one open to the next, so serve-read takes many.
const (
	warmOpens   = 101 // serve-read
	coldDeploys = 9   // serve-write and adhoc-scan
)

// buildStore opens g over dir, prepares every structure and persists it,
// returning the index file and the time spent in each step.
func buildStore(g *trussdiv.Graph, dir string) (file string, build, save time.Duration, err error) {
	start := time.Now()
	db, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		return "", 0, 0, err
	}
	if err := db.Prepare(ctxBG, allStructures...); err != nil {
		return "", 0, 0, err
	}
	build = time.Since(start)
	start = time.Now()
	if file, err = db.SaveIndexes(); err != nil {
		return "", 0, 0, fmt.Errorf("save indexes: %w", err)
	}
	return file, build, time.Since(start), nil
}

// subWindows is how many equal parts the load window is cut into. Each
// part gets its own throughput and latency percentiles, and the run
// reports the second best part of each. Other tenants of a shared host
// slow whole stretches of a run, by up to half and for minutes at a time;
// the second best part is the nearest the run gets to the program's own
// speed without resting on a single part.
const subWindows = 10

// windowed returns, over the sub-windows, the second highest throughput
// of ops and the second lowest p50 and q-quantile of their latencies. A
// sub-window without ops has a throughput of 0 and no latencies.
func windowed(ops []sample, window time.Duration, q float64) (perS float64, p50, tail time.Duration) {
	width := window / subWindows
	parts := make([][]time.Duration, subWindows)
	for _, s := range ops {
		if p := int(s.at / width); p < subWindows {
			parts[p] = append(parts[p], s.lat)
		}
	}
	var rates []float64
	var p50s, tails []time.Duration
	for _, ls := range parts {
		rates = append(rates, float64(len(ls))/width.Seconds())
		if len(ls) > 0 {
			p50s = append(p50s, quantile(ls, 0.5))
			tails = append(tails, quantile(ls, q))
		}
	}
	slices.Sort(rates)
	return rates[subWindows-2], secondLowest(p50s), secondLowest(tails)
}

// secondLowest returns the second lowest of ds, the only one if there is
// one, and 0 if there is none.
func secondLowest(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	switch len(ds) {
	case 0:
		return 0
	case 1:
		return ds[0]
	}
	return ds[1]
}

// e2eMetrics records the end-to-end metrics of one run.
func e2eMetrics(res *result, setups []time.Duration, heap, perS float64, p50, tail time.Duration) {
	res.set("setup_s", quantile(setups, 0.5).Seconds())
	res.set("heap_mb", heap)
	res.set("ops_per_s", perS)
	res.set("p50_ms", ms(p50))
	res.set("tail_ms", ms(tail))
}

// serveRead: a replica warm-starts from a store written beforehand, then
// two closed-loop clients send the Zipf-skewed read mix. Foreground
// operation: one read request; tail is p99.
func serveRead(cfg config, g *trussdiv.Graph) (*result, error) {
	dir, err := os.MkdirTemp(cfg.out, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, _, _, err := buildStore(g, dir); err != nil {
		return nil, err
	}
	var srv *server.Server
	setups := make([]time.Duration, warmOpens)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		srv = server.New(g, server.WithIndexDir(dir))
		setups[i] = time.Since(start)
	}
	heap := heapMiB()

	in := buildReadSet(g, cfg.keys, cfg.seqLen(), cfg.seed)
	load := runLoad(loadSpec{readers: cfg.clients, window: cfg.window,
		read: httpRead(srv.Handler(), in, nil)})

	res := newResult(endToEnd)
	perS, p50, tail := windowed(load.reads, cfg.window, 0.99)
	e2eMetrics(res, setups, heap, perS, p50, tail)
	res.Attempted, res.Failed = int(load.issued()), load.readFails
	res.Correct = load.readFails == 0
	return res, verifyServe(res, srv.Handler(), g, in)
}

// deploy is serve-write's timed set-up: a cold deploy that builds every
// structure into an empty store, persists it, and starts the server on it.
func deploy(g *trussdiv.Graph, dir string) (*server.Server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, _, _, err := buildStore(g, dir); err != nil {
		return nil, err
	}
	return server.New(g, server.WithIndexDir(dir)), nil
}

// serveWrite: open-loop POST /edges batches, each of triadic-closure
// inserts and random deletes, one every writeEvery, beside one
// closed-loop client sending the read mix. Foreground operation: one edge
// batch, timed from its due time; tail is p90.
func serveWrite(cfg config, g *trussdiv.Graph) (*result, error) {
	dir, err := os.MkdirTemp(cfg.out, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var srv *server.Server
	setups := make([]time.Duration, coldDeploys)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		if srv, err = deploy(g, dir); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start)
	}
	heap := heapMiB()

	in := buildReadSet(g, cfg.keys, cfg.seqLen(), cfg.seed)
	edits, err := buildEdits(g, cfg.batches(), editsPerKind, cfg.seed)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(edits))
	for b, u := range edits {
		bodies[b] = editsBody(u)
	}
	h := srv.Handler()
	load := runLoad(loadSpec{readers: cfg.clients - 1, window: cfg.window,
		batches: len(edits), writeEvery: cfg.writeEvery,
		read: httpRead(h, in, nil), write: httpWrite(h, bodies, nil, nil)})

	// Throughput counts reads and writes; the batches are too few per
	// sub-window for percentiles, so theirs are taken over the whole run.
	res := newResult(endToEnd)
	perS, _, _ := windowed(slices.Concat(load.reads, load.writes), cfg.window, 0.5)
	writes := lats(load.writes)
	e2eMetrics(res, setups, heap, perS, quantile(writes, 0.5), quantile(writes, 0.9))
	writeFails := len(load.applied) - len(load.writes)
	res.Attempted = int(load.issued()) + len(load.applied)
	res.Failed = load.readFails + writeFails
	res.Correct = res.Failed == 0
	final := srv.DB().Graph()
	verifyGraph(res, final, g, edits, load.applied)
	return res, verifyServe(res, h, final, in)
}

// adhocScan: an analyst's library DB with only the truss decomposition
// prepared; two closed-loop clients each run one scan at a time over its
// own 2-hop candidate set, so every query misses the result cache.
// Foreground operation: one scan; tail is p99.
func adhocScan(cfg config, g *trussdiv.Graph) (*result, error) {
	var db *trussdiv.DB
	setups := make([]time.Duration, coldDeploys)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		var err error
		if db, err = openBound(g); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start)
	}
	heap := heapMiB()

	specs := buildScans(g, cfg.seed)
	load := runLoad(loadSpec{readers: cfg.clients, window: cfg.window,
		read: scanRead(db, g, specs, cfg.scanCap)})

	res := newResult(endToEnd)
	perS, p50, tail := windowed(load.reads, cfg.window, 0.99)
	e2eMetrics(res, setups, heap, perS, p50, tail)
	res.Attempted, res.Failed = int(load.issued()), load.readFails
	res.Correct = load.readFails == 0
	return res, verifyScans(res, g, specs, cfg.scanCap, load.clients)
}

// openBound is adhoc-scan's set-up: a library DB with the bound engine's
// truss decomposition prepared and nothing else.
func openBound(g *trussdiv.Graph) (*trussdiv.DB, error) {
	db, err := trussdiv.Open(g)
	if err != nil {
		return nil, err
	}
	return db, db.Prepare(ctxBG, "bound")
}
