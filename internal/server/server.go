// Package server exposes truss-based structural diversity search as a
// JSON HTTP service on top of the trussdiv.DB facade: indexes are built
// once at startup, every request runs under its own (optionally
// deadline-bounded) context, and the engine query parameter resolves
// through the DB's engine catalogue — omitted, the DB cost-routes.
//
// Endpoints:
//
//	GET  /healthz                        liveness probe
//	GET  /stats                          graph, index, and epoch statistics
//	GET  /metrics                        per-endpoint request counts + latency histograms
//	GET  /engines                        the engine catalogue
//	GET  /measures                       measure axis: each measure with its engines
//	GET  /topr?k=4&r=10&engine=gct       top-r search (engine optional: cost-routed)
//	POST /batch                          many top-r searches in one DB.Batch pass
//	POST /edges                          apply one edge insert/delete batch (DB.Apply)
//	GET  /score?v=17&k=4                 one vertex's diversity score
//	GET  /contexts?v=17&k=4              one vertex's social contexts
//
// k is optional everywhere it appears: a /topr request without k is a
// parameter-free query and routes to the pfree engine (engine=pfree pins
// it), which picks each vertex's own discriminating level instead of
// taking a threshold; /score and /contexts without k (or with
// engine=pfree) answer the parameter-free point query the same way.
//
// The topr endpoint accepts workers=N to spread the search over a
// worker pool; /batch accepts the same per query. Answers are identical
// for every worker count.
//
// The diversity measure is a query axis: /topr, /score, and /contexts
// accept measure=truss|component|core (omitted = truss, the paper's
// model), and each /batch query may carry a "measure" field. The DB
// routes a measure query to the cheapest engine serving that measure;
// pairing an explicit engine with a measure outside its row of the
// routing matrix (GET /measures) fails with 400.
//
// The graph is mutable: POST /edges applies an atomic batch of edge
// insertions and deletions, advancing the DB to its next epoch-numbered
// snapshot with the search indexes repaired incrementally. Every query
// response reports the epoch it was answered at; each request runs
// against one consistent snapshot, so an update concurrent with a search
// never changes that search's answer. WithReadOnly disables the endpoint.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"trussdiv"
	"trussdiv/internal/graph"
	"trussdiv/internal/metrics"
)

// Server answers structural diversity queries over one evolving graph.
type Server struct {
	db        *trussdiv.DB
	timeout   time.Duration
	indexDir  string
	storeMode trussdiv.StoreMode
	readOnly  bool
	pprof     bool
	built     time.Duration
	metrics   *metrics.Registry
}

// Option configures New.
type Option func(*Server)

// WithTimeout bounds every request by d: a search still running when the
// deadline passes is cancelled through its context and the request fails
// with 504. Zero (the default) means no per-request deadline beyond the
// client disconnecting.
func WithTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithIndexDir connects the server's DB to a persistent index store in
// dir: startup loads prebuilt indexes from dir/indexes.tdx when a valid
// one exists (warm start), and persists freshly built ones otherwise, so
// the next deploy skips the build. A stale or damaged file is rebuilt
// around; /stats reports the rejection.
func WithIndexDir(dir string) Option {
	return func(s *Server) { s.indexDir = dir }
}

// WithStoreMode selects how the index store configured with WithIndexDir
// is read — trussdiv.StoreMmap (the default, zero-copy views over a
// shared mapping) or trussdiv.StoreDecode (classic read-and-decode).
func WithStoreMode(m trussdiv.StoreMode) Option {
	return func(s *Server) { s.storeMode = m }
}

// WithReadOnly disables the POST /edges endpoint: every update request
// fails with 403 and the graph stays exactly as loaded.
func WithReadOnly() Option {
	return func(s *Server) { s.readOnly = true }
}

// WithPprof registers the net/http/pprof handlers under /debug/pprof/
// on the same mux as the query endpoints, so a CPU or heap profile can
// be pulled from a serving replica without a second listener. Off by
// default: the profile endpoints expose internals and cost CPU while
// sampling, so they are strictly opt-in (tsdserve -pprof).
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// New prepares the indexes for g — loading them from the index store
// when one is configured and warm — and returns a ready Server.
func New(g *graph.Graph, opts ...Option) *Server {
	s := &Server{metrics: metrics.New()}
	for _, opt := range opts {
		opt(s)
	}
	var dbOpts []trussdiv.Option
	if s.indexDir != "" {
		dbOpts = append(dbOpts, trussdiv.WithIndexDir(s.indexDir),
			trussdiv.WithStoreMode(s.storeMode))
	}
	db, err := trussdiv.Open(g, dbOpts...)
	if err != nil {
		panic(err) // unreachable: g is non-nil and no conflicting options
	}
	start := time.Now()
	if err := db.Prepare(context.Background()); err != nil {
		panic(err)
	}
	s.db = db
	s.built = time.Since(start)
	s.metrics.Gauge("result_cache", func() map[string]uint64 {
		rc := db.ResultCacheStats()
		out := map[string]uint64{
			"hits":        rc.Hits,
			"misses":      rc.Misses,
			"invalidated": rc.Invalidated,
			"size":        uint64(rc.Size),
			"capacity":    uint64(rc.Capacity),
		}
		// Per-engine split, flattened for the uint64 metrics map: which
		// engines the cache actually serves (pfree keys differently from the
		// fixed-k engines, so its hit rate is worth watching on its own).
		for name, n := range rc.HitsByEngine {
			out["hits_engine_"+name] = n
		}
		for name, n := range rc.MissesByEngine {
			out["misses_engine_"+name] = n
		}
		return out
	})
	return s
}

// DB exposes the underlying facade (used by tests and embedding servers).
func (s *Server) DB() *trussdiv.DB { return s.db }

// Handler returns the HTTP routing for the service. Every endpoint except
// the metrics read itself is instrumented: request counts and latency
// histograms land on GET /metrics, with per-route totals summarized in
// /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	instr := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.Instrument(route, h))
	}
	instr("GET /healthz", "/healthz", s.handleHealth)
	instr("GET /stats", "/stats", s.handleStats)
	instr("GET /engines", "/engines", s.handleEngines)
	instr("GET /measures", "/measures", s.handleMeasures)
	instr("GET /topr", "/topr", s.handleTopR)
	instr("POST /batch", "/batch", s.handleBatch)
	instr("POST /edges", "/edges", s.handleEdges)
	instr("GET /score", "/score", s.handleScore)
	instr("GET /contexts", "/contexts", s.handleContexts)
	mux.HandleFunc("GET /metrics", s.metrics.Handler())
	if s.pprof {
		// Deliberately uninstrumented: a 30s CPU profile pull would
		// dominate every latency histogram it lands in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requestContext derives the per-request search context.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// searchError maps search failures to HTTP statuses: deadline and
// cancellation become 504, everything else is a caller error.
func searchError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
		return
	}
	badRequest(w, "%v", err)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// One snapshot for the whole report, so the counts, epoch, and index
	// readiness describe a single graph version even mid-update.
	snap := s.db.Snapshot()
	idx := snap.IndexStats()
	g := snap.Graph()
	body := map[string]any{
		"vertices":        g.N(),
		"edges":           g.M(),
		"max_degree":      g.MaxDegree(),
		"epoch":           snap.Epoch(),
		"read_only":       s.readOnly,
		"engines":         snap.Engines(),
		"measures":        snap.Measures(),
		"gct_index_bytes": idx.GCTBytes,
		"tsd_index_bytes": idx.TSDBytes,
		"index_build":     s.built.String(),
		// Per-route request totals; GET /metrics has the full histograms.
		"requests": s.metrics.Totals(),
	}
	if rc := s.db.ResultCacheStats(); rc.Enabled {
		cache := map[string]any{
			"hits":        rc.Hits,
			"misses":      rc.Misses,
			"invalidated": rc.Invalidated,
			"size":        rc.Size,
			"capacity":    rc.Capacity,
		}
		if len(rc.HitsByEngine) > 0 {
			cache["hits_by_engine"] = rc.HitsByEngine
		}
		if len(rc.MissesByEngine) > 0 {
			cache["misses_by_engine"] = rc.MissesByEngine
		}
		body["result_cache"] = cache
	}
	if st := snap.StoreStatus(); st.Dir != "" {
		source := "cold"
		if st.Warm && idx.LoadTime > 0 {
			source = "warm"
		}
		body["index_dir"] = st.Dir
		body["index_source"] = source
		if st.LoadErr != nil {
			body["index_load_error"] = st.LoadErr.Error()
		}
		if st.SaveErr != nil {
			// Persisting failed (read-only dir, full disk, ...): the server
			// works but every future deploy will boot cold — surface it.
			body["index_save_error"] = st.SaveErr.Error()
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleEngines(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"engines": s.db.Engines()})
}

// handleMeasures reports the measure axis: every diversity measure the
// DB serves with the engines that can answer it (the routing matrix).
func (s *Server) handleMeasures(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"measures": s.db.Measures()})
}

// measureParam parses the optional measure= query parameter ("" = truss).
func measureParam(params url.Values) (trussdiv.Measure, error) {
	raw := params.Get("measure")
	if raw == "" {
		return "", nil
	}
	return trussdiv.ParseMeasure(raw)
}

// intParam parses a required integer query parameter; see
// optionalIntParam.
func intParam(params url.Values, name string, bits int) (int, error) {
	if params.Get(name) == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	return optionalIntParam(params, name, bits)
}

// optionalIntParam parses an integer query parameter, 0 when absent. It
// must fit a signed integer of the given bit size (0 = int): k and v are
// int32 in the library, so a wider value fails here instead of wrapping
// into a different query.
func optionalIntParam(params url.Values, name string, bits int) (int, error) {
	raw := params.Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return int(v), nil
}

// clampWorkers bounds a client-supplied worker count: non-positive falls
// back to the engine default, anything above GOMAXPROCS is clamped — one
// request must not be able to spawn an unbounded goroutine pool (or blow
// up the ranked scan's chunk size, which scales with the worker count).
func clampWorkers(n int) int {
	if n < 1 {
		return 0
	}
	return min(n, runtime.GOMAXPROCS(0))
}

// candidatesParam parses the optional comma-separated vertex subset.
func candidatesParam(params url.Values) ([]int32, error) {
	raw := params.Get("candidates")
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]int32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("parameter \"candidates\": %v", err)
		}
		out = append(out, int32(v))
	}
	return out, nil
}

type topRResponse struct {
	Engine   string           `json:"engine"`
	Routed   bool             `json:"routed"`
	Measure  trussdiv.Measure `json:"measure"`
	Epoch    uint64           `json:"epoch"`
	K        int              `json:"k"`
	R        int              `json:"r"`
	TookUS   int64            `json:"took_us"`
	Searched int              `json:"search_space"`
	Results  []topRResult     `json:"results"`
}

type topRResult struct {
	Vertex   int32     `json:"vertex"`
	Score    int       `json:"score"`
	Contexts [][]int32 `json:"contexts,omitempty"`
}

func (s *Server) handleTopR(w http.ResponseWriter, r *http.Request) {
	// k is optional: absent (or 0) builds a parameter-free query, which
	// routes to the pfree engine — the objective picks each vertex's level.
	params := r.URL.Query()
	k, err := optionalIntParam(params, "k", 32)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	rr, err := intParam(params, "r", 0)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	cands, err := candidatesParam(params)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	workers, err := optionalIntParam(params, "workers", 0)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	measure, err := measureParam(params)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	q := trussdiv.Query{
		K:               int32(k),
		R:               rr,
		IncludeContexts: params.Get("contexts") == "true",
		Candidates:      cands,
		Workers:         clampWorkers(workers),
		Measure:         measure,
	}

	// Route and run the query against one snapshot, so routing and
	// execution agree on the graph version even when an update lands
	// mid-request. An absent parameter means the snapshot routes by cost
	// among the engines serving the query's measure; a named engine is
	// checked against the measure (tsd cannot answer measure=component),
	// and a routing error answers 400 through searchError. The response
	// names the engine that answered (stats.Engine), so a concurrent
	// request that readies an index cannot make the label disagree.
	snap := s.db.Snapshot()
	q.Engine = params.Get("engine")
	routed := q.Engine == ""

	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	res, stats, err := snap.TopR(ctx, q)
	if err != nil {
		searchError(w, err)
		return
	}
	eng, err := snap.Engine(stats.Engine)
	if err != nil {
		searchError(w, err)
		return
	}
	body := topRResponse{
		Engine: stats.Engine,
		Routed: routed,
		// A pinned comp/kcore engine with no measure param answers under
		// its native definition; echo that, not the truss default.
		Measure: trussdiv.EffectiveMeasure(q, eng),
		Epoch:   uint64(snap.Epoch()),
		K:       k,
		R:       rr,
		TookUS:  time.Since(start).Microseconds(),
	}
	body.Searched = stats.ScoreComputations
	for _, e := range res.TopR {
		out := topRResult{Vertex: e.V, Score: e.Score}
		if q.IncludeContexts {
			out.Contexts = res.Contexts[e.V]
		}
		body.Results = append(body.Results, out)
	}
	writeJSON(w, http.StatusOK, body)
}

// batchQuery is the JSON shape of one query in a POST /batch body.
type batchQuery struct {
	K          int32   `json:"k"`
	R          int     `json:"r"`
	Engine     string  `json:"engine,omitempty"`
	Measure    string  `json:"measure,omitempty"`
	Contexts   bool    `json:"contexts,omitempty"`
	Candidates []int32 `json:"candidates,omitempty"`
	Workers    int     `json:"workers,omitempty"`
}

type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

type batchResponse struct {
	TookUS  int64          `json:"took_us"`
	Results []topRResponse `json:"results"`
}

const (
	// maxBatchQueries bounds one /batch request; larger workloads should
	// split into several requests so timeouts and backpressure stay sane.
	maxBatchQueries = 1024
	// maxBatchBody bounds the request body (candidate lists dominate).
	maxBatchBody = 8 << 20
)

// handleBatch answers many top-r queries in one DB.Batch pass: shared
// indexes are built once and the queries fan out across the worker pool.
// Each query routes by cost unless it names an engine.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		badRequest(w, "batch body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, "batch body: no queries")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		badRequest(w, "batch body: %d queries exceeds the limit of %d",
			len(req.Queries), maxBatchQueries)
		return
	}
	qs := make([]trussdiv.Query, len(req.Queries))
	for i, bq := range req.Queries {
		var measure trussdiv.Measure
		if bq.Measure != "" {
			m, err := trussdiv.ParseMeasure(bq.Measure)
			if err != nil {
				badRequest(w, "batch query %d: %v", i, err)
				return
			}
			measure = m
		}
		qs[i] = trussdiv.Query{
			K:               bq.K,
			R:               bq.R,
			Engine:          bq.Engine,
			Measure:         measure,
			IncludeContexts: bq.Contexts,
			Candidates:      bq.Candidates,
			Workers:         clampWorkers(bq.Workers),
			SkipStats:       true, // Batch drops stats anyway
		}
	}
	// One snapshot labels and answers the whole batch: every result shares
	// one epoch, never split across graph versions by a concurrent update.
	snap := s.db.Snapshot()
	engines, err := snap.BatchEngines(qs)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	results, err := snap.Batch(ctx, qs)
	if err != nil {
		searchError(w, err)
		return
	}
	resp := batchResponse{TookUS: time.Since(start).Microseconds()}
	resp.Results = make([]topRResponse, len(results))
	for i, res := range results {
		measure := qs[i].Measure.Normalize()
		if eng, err := snap.Engine(engines[i]); err == nil {
			// As in /topr: a pinned native engine with no measure field
			// answered under its own definition.
			measure = trussdiv.EffectiveMeasure(qs[i], eng)
		}
		item := topRResponse{
			Engine:  engines[i],
			Routed:  req.Queries[i].Engine == "",
			Measure: measure,
			Epoch:   res.Epoch,
			K:       int(qs[i].K),
			R:       qs[i].R,
		}
		for _, e := range res.TopR {
			out := topRResult{Vertex: e.V, Score: e.Score}
			if qs[i].IncludeContexts {
				out.Contexts = res.Contexts[e.V]
			}
			item.Results = append(item.Results, out)
		}
		resp.Results[i] = item
	}
	writeJSON(w, http.StatusOK, resp)
}

// edgeJSON is one edge in a POST /edges body.
type edgeJSON struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
}

type edgesRequest struct {
	Insert []edgeJSON `json:"insert,omitempty"`
	Delete []edgeJSON `json:"delete,omitempty"`
}

type edgesResponse struct {
	Epoch    uint64 `json:"epoch"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	TookUS   int64  `json:"took_us"`
	// Repaired counts the vertices whose ego-networks the incremental
	// maintenance re-derived: one patch pass repairs the TSD and GCT
	// indexes and every ranking table in memory (0 when the DB held none
	// of them).
	Repaired int `json:"repaired"`
}

const (
	// maxEdgeBatch bounds one /edges request; the affected ego-network set
	// grows with the batch, so huge batches should go through a rebuild.
	maxEdgeBatch = 4096
	// maxEdgesBody bounds the request body.
	maxEdgesBody = 4 << 20
)

// handleEdges applies one atomic edge-update batch through DB.Apply: the
// response reports the new epoch, in-flight searches keep their snapshot,
// and subsequent requests see the edited graph with its indexes repaired
// incrementally. A batch the DB rejects (errors.Is ErrBadUpdate: self-loops,
// duplicate edits, inserting a present edge, deleting an absent one,
// out-of-range endpoints) fails with 409 and leaves the graph untouched.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeJSON(w, http.StatusForbidden, errorBody{Error: "server is read-only (started with -readonly)"})
		return
	}
	var req edgesRequest
	body := http.MaxBytesReader(w, r.Body, maxEdgesBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		badRequest(w, "edges body: %v", err)
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		badRequest(w, "edges body: no edits")
		return
	}
	if len(req.Insert)+len(req.Delete) > maxEdgeBatch {
		badRequest(w, "edges body: %d edits exceeds the limit of %d",
			len(req.Insert)+len(req.Delete), maxEdgeBatch)
		return
	}
	u := trussdiv.Updates{
		Insert: make([]trussdiv.Edge, len(req.Insert)),
		Delete: make([]trussdiv.Edge, len(req.Delete)),
	}
	for i, e := range req.Insert {
		u.Insert[i] = trussdiv.Edge{U: e.U, V: e.V}
	}
	for i, e := range req.Delete {
		u.Delete[i] = trussdiv.Edge{U: e.U, V: e.V}
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	if _, err := s.db.Apply(ctx, u); err != nil {
		switch {
		case errors.Is(err, trussdiv.ErrBadUpdate):
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
		default:
			badRequest(w, "%v", err)
		}
		return
	}
	// Every derived field comes from one snapshot, keyed by its epoch. A
	// concurrent update may land between Apply and this read; the response
	// then describes that newer snapshot consistently (epoch included)
	// rather than mixing this batch's epoch with newer state.
	snap := s.db.Snapshot()
	resp := edgesResponse{
		Epoch:    uint64(snap.Epoch()),
		Inserted: len(req.Insert),
		Deleted:  len(req.Delete),
		Vertices: snap.Graph().N(),
		Edges:    snap.Graph().M(),
		TookUS:   time.Since(start).Microseconds(),
	}
	if st := snap.ApplyStats(); st != nil {
		resp.Repaired = st.Affected
	}
	writeJSON(w, http.StatusOK, resp)
}

// vertexParam parses the point-query axes: the vertex (required), the
// threshold k, and whether the request is parameter-free. k is optional
// — absent or 0 means pfree semantics (the objective chooses the
// level), matching /topr; engine=pfree makes that explicit and rejects
// a non-zero k with 400, mirroring the library's BadQueryError.
func (s *Server) vertexParam(params url.Values) (v, k int32, pf bool, err error) {
	vi, err := intParam(params, "v", 32)
	if err != nil {
		return 0, 0, false, err
	}
	ki, err := optionalIntParam(params, "k", 32)
	if err != nil {
		return 0, 0, false, err
	}
	eng := params.Get("engine")
	switch eng {
	case "", "pfree":
		// pfree is the only engine with point semantics of its own; any
		// other name would silently answer with default-path semantics, so
		// reject it rather than mislabel the response.
	default:
		return 0, 0, false, fmt.Errorf("parameter \"engine\": point queries accept only engine=pfree, got %q", eng)
	}
	pf = ki == 0
	if eng == "pfree" && ki != 0 {
		return 0, 0, false, fmt.Errorf("engine \"pfree\" is parameter-free: leave k unset, got k=%d", ki)
	}
	return int32(vi), int32(ki), pf, nil
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	v, k, pf, err := s.vertexParam(params)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	measure, err := measureParam(params)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var score int
	if pf {
		score, err = s.db.ScorePFree(ctx, v, measure)
	} else {
		score, err = s.db.ScoreMeasure(ctx, v, k, measure)
	}
	if err != nil {
		searchError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"vertex":  v,
		"k":       k,
		"measure": measure.Normalize(),
		"score":   score,
	})
}

func (s *Server) handleContexts(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	v, k, pf, err := s.vertexParam(params)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	measure, err := measureParam(params)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var contexts [][]int32
	if pf {
		contexts, err = s.db.ContextsPFree(ctx, v, measure)
	} else {
		contexts, err = s.db.ContextsMeasure(ctx, v, k, measure)
	}
	if err != nil {
		searchError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"vertex":   v,
		"k":        k,
		"measure":  measure.Normalize(),
		"score":    len(contexts),
		"contexts": contexts,
	})
}
