package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"trussdiv"
	"trussdiv/internal/server"
)

// The traced run gives the per-layer metrics. It uses the run's seed, caps
// its reads at about a quarter of an end-to-end run's, and makes up to
// five passes over one recorded request sequence, each on a freshly set
// up instance so cache states match:
//
//	0. the workload, untraced, with one reader: fixes the sequence length;
//	1. the same sequence, traced: one span per request around the handler
//	   (serve) or around the route and TopR calls of the facade (scan);
//	2. serve only: the same sequence through the trussdiv facade, with
//	   route, answer and point spans. The handler's own time is pass 1
//	   minus the facade work of pass 2, request by request;
//	3. serve-write only: the Apply sub-steps replayed batch by batch;
//	4. kernel calibration over the scan queries' candidate sets (scan) or
//	   the vertices each edit batch re-scores (serve-write).

// Span request ids: reads are i+1, writes writeReq(b), kernel sets this.
const kernelReq = 1 << 41

func tracedRun(cfg config, g *trussdiv.Graph) (*result, error) {
	tr := newTracer()
	res := newResult(perLayer)
	var err error
	switch cfg.workload {
	case "serve-read":
		err = traceServe(cfg, g, tr, res, false)
	case "serve-write":
		err = traceServe(cfg, g, tr, res, true)
	default:
		err = traceScan(cfg, g, tr, res)
	}
	if err != nil {
		return nil, err
	}
	res.check(tr.finish())
	path := filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl")
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Printf("loadbench: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// facadeCall is what pass 2 (serve) or pass 1 (scan) saw of one call.
type facadeCall struct {
	kind       readKind
	hit        bool   // a top-r answer served from the result cache
	engine     string // the engine that computed a top-r answer
	contexts   bool
	route      time.Duration
	took       time.Duration
	computed   int // Stats.ScoreComputations
	candidates int
}

// facadeTopR runs q as the /topr handler does — resolve the engine on one
// snapshot, then TopR on it — with a route span and a topr span.
func facadeTopR(db *trussdiv.DB, tr *tracer, req, parent int64, q trussdiv.Query) (*trussdiv.Result, facadeCall, error) {
	call := facadeCall{contexts: q.IncludeContexts, candidates: len(q.Candidates)}
	if q.Candidates == nil {
		call.candidates = db.Graph().N()
	}
	snap := db.Snapshot()
	sp := tr.begin(req, parent, "route")
	_, err := snap.ResolveEngine(q)
	call.route = tr.end(sp)
	if err != nil {
		return nil, call, err
	}
	hits := db.ResultCacheStats().Hits
	sp = tr.begin(req, parent, "topr")
	res, st, err := snap.TopR(ctxBG, q)
	call.took = tr.end(sp)
	call.hit = db.ResultCacheStats().Hits > hits
	if st != nil {
		call.engine, call.computed = st.Engine, st.ScoreComputations
	}
	return res, call, err
}

// facadeRead serves the read sequence through the facade, mirroring what
// each handler calls. One reader only: calls is appended unlocked.
func facadeRead(db *trussdiv.DB, in *readSet, tr *tracer, calls *[]facadeCall) func(*client, int64) (time.Duration, bool) {
	return func(c *client, i int64) (time.Duration, bool) {
		k := in.key(i)
		root := tr.begin(i+1, 0, "facade."+kindNames[k.kind])
		call := facadeCall{kind: k.kind}
		var err error
		switch k.kind {
		case kindScore:
			sp := tr.begin(i+1, root.id, "point.score")
			if k.k == 0 {
				_, err = db.ScorePFree(ctxBG, k.v, k.m)
			} else {
				_, err = db.ScoreMeasure(ctxBG, k.v, k.k, k.m)
			}
			call.took = tr.end(sp)
		case kindContexts:
			sp := tr.begin(i+1, root.id, "point.contexts")
			if k.k == 0 {
				_, err = db.ContextsPFree(ctxBG, k.v, k.m)
			} else {
				_, err = db.ContextsMeasure(ctxBG, k.v, k.k, k.m)
			}
			call.took = tr.end(sp)
		case kindBatch:
			snap := db.Snapshot()
			sp := tr.begin(i+1, root.id, "route.batch")
			if _, err = snap.BatchEngines(k.batch); err == nil {
				tr.end(sp)
				sp = tr.begin(i+1, root.id, "batch")
				_, err = snap.Batch(ctxBG, k.batch)
			}
			call.took = tr.end(sp)
		default:
			_, call, err = facadeTopR(db, tr, i+1, root.id, k.q)
			call.kind = k.kind
		}
		*calls = append(*calls, call)
		return tr.end(root), err == nil
	}
}

// facadeWrite applies edit batch b through the facade.
func facadeWrite(db *trussdiv.DB, edits []trussdiv.Updates, tr *tracer) func(*client, int) bool {
	return func(_ *client, b int) bool {
		sp := tr.begin(writeReq(b), 0, "apply")
		_, err := db.Apply(ctxBG, edits[b])
		tr.end(sp)
		return err == nil
	}
}

// facadeMetrics reports the routing, cache and engine layers.
func facadeMetrics(res *result, calls []facadeCall) {
	var route, hit, miss, ranked, point, ctxs, online, bound, pfreeScan []time.Duration
	computed, boundComputed, boundCands := 0, 0, 0
	for _, c := range calls {
		switch c.kind {
		case kindScore:
			point = append(point, c.took)
			continue
		case kindContexts:
			ctxs = append(ctxs, c.took)
			continue
		case kindBatch:
			continue
		}
		route = append(route, c.route)
		if c.hit {
			hit = append(hit, c.took)
			continue
		}
		miss = append(miss, c.took)
		computed += c.computed
		switch {
		case c.engine == "online":
			online = append(online, c.took)
		case c.engine == "bound":
			bound = append(bound, c.took)
			boundComputed += c.computed
			boundCands += c.candidates
		case c.engine == "pfree" && c.computed > 0:
			pfreeScan = append(pfreeScan, c.took)
		case !c.contexts:
			ranked = append(ranked, c.took)
		}
	}
	res.set("route.ns_p50", float64(quantile(route, 0.5).Nanoseconds()))
	res.set("cache.hit_ratio", ratio(float64(len(hit)), float64(len(hit)+len(miss))))
	res.set("cache.hit_us_p50", us(quantile(hit, 0.5)))
	res.set("cache.miss_us_p50", us(quantile(miss, 0.5)))
	res.set("engine.ranked_us_p50", us(quantile(ranked, 0.5)))
	res.set("engine.point_us_p50", us(quantile(point, 0.5)))
	res.set("contexts.us_p50", us(quantile(ctxs, 0.5)))
	res.set("contexts.us_p99", us(quantile(ctxs, 0.99)))
	res.set("engine.online_ms_p50", ms(quantile(online, 0.5)))
	res.set("engine.bound_ms_p50", ms(quantile(bound, 0.5)))
	res.set("engine.pfree_scan_ms_p50", ms(quantile(pfreeScan, 0.5)))
	res.set("engine.score_computations_per_query", ratio(float64(computed), float64(len(miss))))
	if boundCands > 0 {
		res.set("bound.prune_ratio", 1-float64(boundComputed)/float64(boundCands))
	}
}

// overheadRatio compares the traced pass's mean read latency with the
// untraced pass's over the same requests.
func overheadRatio(traced, untraced *loadResult) float64 {
	return ratio(float64(mean(lats(traced.reads))), float64(mean(lats(untraced.reads))))
}

// copyStore copies the index file src into a new directory dst.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(filepath.Join(dst, filepath.Base(src)))
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func traceServe(cfg config, g *trussdiv.Graph, tr *tracer, res *result, writes bool) error {
	base, err := os.MkdirTemp(cfg.out, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	file, build, save, err := buildStore(g, base)
	if err != nil {
		return err
	}
	info, err := os.Stat(file)
	if err != nil {
		return err
	}
	res.set("setup.build_s", build.Seconds())
	res.set("setup.save_s", save.Seconds())
	res.set("store.file_mb", float64(info.Size())/(1<<20))

	// One replica per pass, each warm-started from its own copy of the
	// store: after an Apply the DB may persist into the store it opened.
	var opens []time.Duration
	replica := func(pass int) (*server.Server, error) {
		dir := filepath.Join(base, fmt.Sprintf("pass%d", pass))
		if err := copyStore(file, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		srv := server.New(g, server.WithIndexDir(dir))
		opens = append(opens, time.Since(start))
		return srv, nil
	}

	in := buildReadSet(g, cfg.keys, cfg.seqLen(), cfg.seed)
	var (
		edits  []trussdiv.Updates
		bodies [][]byte
	)
	readers := 1
	if writes {
		if edits, err = buildEdits(g, cfg.batches(), editsPerKind, cfg.seed); err != nil {
			return err
		}
		for _, u := range edits {
			bodies = append(bodies, editsBody(u))
		}
		readers = min(1, cfg.clients-1)
	}

	srv0, err := replica(0)
	if err != nil {
		return err
	}
	h0 := srv0.Handler()
	p0 := runLoad(loadSpec{readers: readers, window: cfg.window / 4, reads: cfg.traceReads,
		batches: len(edits), writeEvery: cfg.writeEvery,
		read: httpRead(h0, in, nil), write: httpWrite(h0, bodies, nil, nil)})
	n, batches := p0.issued(), len(p0.applied)

	tr.pass = 1
	srv1, err := replica(1)
	if err != nil {
		return err
	}
	h1 := srv1.Handler()
	var applied []trussdiv.UpdateStats // written by the writer goroutine only
	after := func(int) {
		if st := srv1.DB().Snapshot().ApplyStats(); st != nil {
			applied = append(applied, *st)
		}
	}
	p1 := runLoad(loadSpec{readers: readers, reads: n, batches: batches, writeEvery: cfg.writeEvery,
		read: httpRead(h1, in, tr), write: httpWrite(h1, bodies, tr, after)})

	tr.pass = 2
	srv2, err := replica(2)
	if err != nil {
		return err
	}
	db2 := srv2.DB()
	var calls []facadeCall
	before := db2.ResultCacheStats()
	runLoad(loadSpec{readers: readers, reads: n, batches: batches, writeEvery: cfg.writeEvery,
		read: facadeRead(db2, in, tr, &calls), write: facadeWrite(db2, edits, tr)})
	invalidated := db2.ResultCacheStats().Invalidated - before.Invalidated

	facadeMetrics(res, calls)
	httpSelf(res, tr, in, n)
	res.set("setup.open_ms", ms(quantile(opens, 0.5)))
	res.set("trace.overhead_ratio", overheadRatio(p1, p0))

	if writes && batches > 0 {
		res.set("cache.invalidated_per_apply", float64(invalidated)/float64(batches))
		res.set("load.write_lag_ms_p90", ms(quantile(p1.lags, 0.9)))
		reads := lats(p1.reads)
		res.set("bg.read_p50_us", us(quantile(reads, 0.5)))
		res.set("bg.read_p99_us", us(quantile(reads, 0.99)))
		applyStats(res, applied, batches)

		tr.pass = 3
		cost, err := replayApply(tr, g, edits[:batches])
		if err != nil {
			return err
		}
		perBatch := func(d time.Duration) float64 { return ms(d) / float64(batches) }
		res.set("apply.graph_edit_ms", perBatch(cost.edit))
		res.set("apply.truss_repair_ms", perBatch(cost.repair))
		res.set("apply.rescore_ms", perBatch(cost.rescore))
		res.set("apply.self_ms", ms(mean(tr.durations(2, "apply")))-perBatch(cost.edit+cost.repair+cost.rescore))

		tr.pass = 4
		ks := make([]int32, len(cost.affected))
		for i := range ks {
			ks[i] = minK
		}
		calibrateKernels(tr, kernelReq, g, cost.affected, ks).report(res)
	}

	final := srv1.DB().Graph()
	if writes {
		verifyGraph(res, final, g, edits, p1.applied)
	}
	return verifyServe(res, h1, final, in)
}

// httpSelf reports the handler's own time per request class: the pass-1
// handler span minus the pass-2 facade work of the same request.
func httpSelf(res *result, tr *tracer, in *readSet, n int64) {
	handler := tr.reqTimes(1, func(s span) bool { return s.Parent == 0 && s.Req <= n })
	facade := tr.reqTimes(2, func(s span) bool { return s.Parent != 0 && s.Req <= n })
	var topr, point, batch []time.Duration
	for i := range n {
		h, ok1 := handler[i+1]
		f, ok2 := facade[i+1]
		if !ok1 || !ok2 {
			continue
		}
		self := time.Duration(h - f)
		switch in.key(i).kind {
		case kindScore, kindContexts:
			point = append(point, self)
		case kindBatch:
			batch = append(batch, self)
		default:
			topr = append(topr, self)
		}
	}
	res.set("http.topr_self_us_p50", us(quantile(topr, 0.5)))
	res.set("http.point_self_us_p50", us(quantile(point, 0.5)))
	res.set("http.batch_self_us_p50", us(quantile(batch, 0.5)))
}

// applyStats reports Apply's own counts, per batch.
func applyStats(res *result, applied []trussdiv.UpdateStats, batches int) {
	var affected, region, patched, fallbacks int
	for _, st := range applied {
		affected += st.Affected
		region += st.TrussRegion
		patched += st.RankingsPatched
		if !st.TrussRepaired {
			fallbacks++
		}
	}
	n := float64(batches)
	res.set("apply.affected", float64(affected)/n)
	res.set("apply.truss_region_edges", float64(region)/n)
	res.set("apply.rankings_patched", float64(patched)/n)
	res.set("apply.truss_fallback_ratio", float64(fallbacks)/n)
}

// scanTraced is scanRead with route and topr spans under one scan span.
func scanTraced(db *trussdiv.DB, g *trussdiv.Graph, specs []scanSpec, limit int, tr *tracer, calls *[]facadeCall) func(*client, int64) (time.Duration, bool) {
	return func(c *client, i int64) (time.Duration, bool) {
		sp := &specs[i%int64(len(specs))]
		q := sp.q
		q.Candidates = c.hood.twoHop(g, sp.center, limit)
		root := tr.begin(i+1, 0, "scan")
		r, call, err := facadeTopR(db, tr, i+1, root.id, q)
		took := tr.end(root)
		*calls = append(*calls, call)
		if err == nil && i%scanEvery == 0 {
			c.kept = append(c.kept, keptScan{i, r})
		}
		return took, err == nil
	}
}

func traceScan(cfg config, g *trussdiv.Graph, tr *tracer, res *result) error {
	start := time.Now()
	db0, err := openBound(g)
	if err != nil {
		return err
	}
	res.set("setup.build_s", time.Since(start).Seconds())
	specs := buildScans(g, cfg.seed)
	p0 := runLoad(loadSpec{readers: 1, window: cfg.window / 4, reads: cfg.traceReads,
		read: scanRead(db0, g, specs, cfg.scanCap)})
	n := p0.issued()

	tr.pass = 1
	db1, err := openBound(g)
	if err != nil {
		return err
	}
	var calls []facadeCall
	p1 := runLoad(loadSpec{readers: 1, reads: n, read: scanTraced(db1, g, specs, cfg.scanCap, tr, &calls)})
	facadeMetrics(res, calls)
	res.set("trace.overhead_ratio", overheadRatio(p1, p0))

	// Kernels: calibrate on up to 64 of the scans, spread over the
	// sequence, and estimate the kernels' share of those scans' time.
	tr.pass = 4
	var (
		sets   [][]int32
		ks     []int32
		sample []int64
		h      hood
	)
	for i := int64(0); i < n; i += max(1, n/64) {
		sp := specs[i%int64(len(specs))]
		sets = append(sets, slices.Clone(h.twoHop(g, sp.center, cfg.scanCap)))
		ks = append(ks, max(sp.q.K, minK))
		sample = append(sample, i)
	}
	cost := calibrateKernels(tr, kernelReq, g, sets, ks)
	cost.report(res)
	var kernel, total float64
	for _, i := range sample {
		c := calls[i] // one reader: calls[i] is scan i
		kernel += float64(c.computed) * cost.scoreNs(specs[i%int64(len(specs))].q.Measure)
		total += float64(c.took.Nanoseconds())
	}
	res.set("scan.kernel_share", ratio(kernel, total))

	return verifyScans(res, g, specs, cfg.scanCap, p1.clients)
}
