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
	instr := func(pattern, route string, h handler) {
		mux.HandleFunc(pattern, s.metrics.Instrument(route, s.serve(h)))
	}
	instr("GET /healthz", "/healthz", s.handleHealth)
	instr("GET /stats", "/stats", s.handleStats)
	instr("GET /engines", "/engines", s.handleEngines)
	instr("GET /measures", "/measures", s.handleMeasures)
	instr("GET /topr", "/topr", s.handleTopR)
	instr("POST /batch", "/batch", s.handleBatch)
	instr("POST /edges", "/edges", s.handleEdges)
	instr("GET /score", "/score", s.handlePoint(false))
	instr("GET /contexts", "/contexts", s.handlePoint(true))
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

// handler is the shape of every endpoint: it returns the body of a 200
// answer or the error that replaces it. w is there only for
// http.MaxBytesReader; the handler never writes to it.
type handler func(w http.ResponseWriter, r *http.Request) (any, error)

// errReadOnly rejects POST /edges on a server built WithReadOnly.
var errReadOnly = errors.New("server is read-only (started with -readonly)")

// statusOf is the one status policy for failed requests: a deadline or
// cancellation is 504, a batch the DB rejects is 409, an update to a
// read-only server is 403, and everything else is a caller error.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, trussdiv.ErrBadUpdate):
		return http.StatusConflict
	case errors.Is(err, errReadOnly):
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// serve runs h under the server's request deadline, if any, and encodes
// its body, or its error under statusOf. A query answer encodes itself
// (appender) and goes out in one Write; every other body, errors
// included, goes through json.Encoder. A failed Write means the client
// is gone, and there is no one left to tell.
func (s *Server) serve(h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		body, err := h(w, r)
		status := http.StatusOK
		if err != nil {
			status, body = statusOf(err), errorBody{Error: err.Error()}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if a, ok := body.(appender); ok {
			buf := bufPool.Get().(*[]byte)
			*buf = append(a.appendJSON((*buf)[:0]), '\n') // json.Encoder's newline
			_, _ = w.Write(*buf)
			if cap(*buf) <= maxPooledBuf {
				bufPool.Put(buf)
			}
			return
		}
		_ = json.NewEncoder(w).Encode(body)
	}
}

func (s *Server) handleHealth(http.ResponseWriter, *http.Request) (any, error) {
	return map[string]string{"status": "ok"}, nil
}

func (s *Server) handleStats(http.ResponseWriter, *http.Request) (any, error) {
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
	return body, nil
}

func (s *Server) handleEngines(http.ResponseWriter, *http.Request) (any, error) {
	return map[string]any{"engines": s.db.Engines()}, nil
}

// handleMeasures reports the measure axis: every diversity measure the
// DB serves with the engines that can answer it (the routing matrix).
func (s *Server) handleMeasures(http.ResponseWriter, *http.Request) (any, error) {
	return map[string]any{"measures": s.db.Measures()}, nil
}

// params reads query parameters and keeps the first error: once a read
// fails, later reads return zero values, so a handler reads them all and
// checks err once.
type params struct {
	url.Values
	err error
}

// int parses an integer parameter, 0 when absent (a failure when
// required). It must fit a signed integer of the given bit size (0 =
// int): k and v are int32 in the library, so a wider value fails here
// instead of wrapping into a different query.
func (p *params) int(name string, bits int, required bool) int {
	raw := p.Get(name)
	if p.err != nil || raw == "" {
		if required && p.err == nil {
			p.err = fmt.Errorf("missing parameter %q", name)
		}
		return 0
	}
	v, err := strconv.ParseInt(raw, 10, bits)
	if err != nil {
		p.err = fmt.Errorf("parameter %q: %v", name, err)
	}
	return int(v)
}

// bool parses an optional boolean parameter, false when absent; it
// takes what strconv.ParseBool takes (1, t, true, 0, f, false, ...).
func (p *params) bool(name string) bool {
	raw := p.Get(name)
	if p.err != nil || raw == "" {
		return false
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		p.err = fmt.Errorf("parameter %q: %v", name, err)
	}
	return v
}

// measure parses the optional measure= parameter ("" = truss).
func (p *params) measure() trussdiv.Measure {
	raw := p.Get("measure")
	if p.err != nil || raw == "" {
		return ""
	}
	m, err := trussdiv.ParseMeasure(raw)
	p.err = err
	return m
}

// candidates parses the optional comma-separated vertex subset.
func (p *params) candidates() []int32 {
	raw := p.Get("candidates")
	if p.err != nil || raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := make([]int32, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			p.err = fmt.Errorf("parameter \"candidates\": %v", err)
			return nil
		}
		out = append(out, int32(v))
	}
	return out
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

// topRResponse is the /topr body and one /batch item: the query echo and
// the engine's answer, encoded straight from Res (encode.go). Only /topr
// times and counts its search (Timed), so a batch item omits took_us and
// search_space rather than report zeros no one measured.
type topRResponse struct {
	Engine   string
	Routed   bool
	Measure  trussdiv.Measure
	K        int32
	R        int
	Contexts bool // the query asked for each vertex's social contexts
	Timed    bool
	TookUS   int64
	Searched int
	Res      *trussdiv.Result
}

// topRBody renders the answer res that engine eng gave to q: the /topr
// response and each item of a /batch response. A pinned comp or
// kcore engine with no measure answers under its native definition, so
// the echoed measure comes from the engine, not the truss default.
func topRBody(snap *trussdiv.Snapshot, q trussdiv.Query, eng string, res *trussdiv.Result) topRResponse {
	measure := q.Measure.Normalize()
	if e, err := snap.Engine(eng); err == nil {
		measure = trussdiv.EffectiveMeasure(q, e)
	}
	return topRResponse{
		Engine:   eng,
		Routed:   q.Engine == "",
		Measure:  measure,
		K:        q.K,
		R:        q.R,
		Contexts: q.IncludeContexts,
		Res:      res,
	}
}

func (s *Server) handleTopR(_ http.ResponseWriter, r *http.Request) (any, error) {
	// k is optional: absent (or 0) builds a parameter-free query, which
	// routes to the pfree engine — the objective picks each vertex's level.
	p := params{Values: r.URL.Query()}
	q := trussdiv.Query{
		K:               int32(p.int("k", 32, false)),
		R:               p.int("r", 0, true),
		Candidates:      p.candidates(),
		Workers:         clampWorkers(p.int("workers", 0, false)),
		Measure:         p.measure(),
		IncludeContexts: p.bool("contexts"),
		// An absent engine means the snapshot routes by cost among the
		// engines serving the query's measure; a named engine is checked
		// against the measure (tsd cannot answer measure=component).
		Engine: p.Get("engine"),
	}
	if p.err != nil {
		return nil, p.err
	}

	// Route and run the query against one snapshot, so routing and
	// execution agree on the graph version even when an update lands
	// mid-request. The response names the engine that answered
	// (stats.Engine), so a concurrent request that readies an index
	// cannot make the label disagree.
	snap := s.db.Snapshot()
	start := time.Now()
	res, stats, err := snap.TopR(r.Context(), q)
	if err != nil {
		return nil, err
	}
	took := time.Since(start).Microseconds()
	body := topRBody(snap, q, stats.Engine, res)
	body.Timed, body.TookUS, body.Searched = true, took, stats.ScoreComputations
	return &body, nil
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
	TookUS  int64
	Results []topRResponse
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
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (any, error) {
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		return nil, fmt.Errorf("batch body: %v", err)
	}
	if n := len(req.Queries); n == 0 {
		return nil, errors.New("batch body: no queries")
	} else if n > maxBatchQueries {
		return nil, fmt.Errorf("batch body: %d queries exceeds the limit of %d", n, maxBatchQueries)
	}
	qs := make([]trussdiv.Query, len(req.Queries))
	for i, bq := range req.Queries {
		var measure trussdiv.Measure
		if bq.Measure != "" {
			var err error
			if measure, err = trussdiv.ParseMeasure(bq.Measure); err != nil {
				return nil, fmt.Errorf("batch query %d: %v", i, err)
			}
		}
		qs[i] = trussdiv.Query{
			K:               bq.K,
			R:               bq.R,
			Engine:          bq.Engine,
			Measure:         measure,
			IncludeContexts: bq.Contexts,
			Candidates:      bq.Candidates,
			Workers:         clampWorkers(bq.Workers),
		}
	}
	// One snapshot labels and answers the whole batch: every result shares
	// one epoch, never split across graph versions by a concurrent update.
	snap := s.db.Snapshot()
	engines, err := snap.BatchEngines(qs)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	results, err := snap.Batch(r.Context(), qs)
	if err != nil {
		return nil, err
	}
	resp := &batchResponse{TookUS: time.Since(start).Microseconds()}
	resp.Results = make([]topRResponse, len(results))
	for i, res := range results {
		resp.Results[i] = topRBody(snap, qs[i], engines[i], res)
	}
	return resp, nil
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
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) (any, error) {
	if s.readOnly {
		return nil, errReadOnly
	}
	var req edgesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEdgesBody)).Decode(&req); err != nil {
		return nil, fmt.Errorf("edges body: %v", err)
	}
	if n := len(req.Insert) + len(req.Delete); n == 0 {
		return nil, errors.New("edges body: no edits")
	} else if n > maxEdgeBatch {
		return nil, fmt.Errorf("edges body: %d edits exceeds the limit of %d", n, maxEdgeBatch)
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

	start := time.Now()
	if _, err := s.db.Apply(r.Context(), u); err != nil {
		return nil, err
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
	return resp, nil
}

// pointResponse is the body of /score and /contexts. Its keys go on the
// wire in sorted order (TestResponsesGolden). /score omits contexts;
// /contexts always carries them, an empty answer as null.
type pointResponse struct {
	WithContexts bool
	Contexts     [][]int32
	K            int32
	Measure      trussdiv.Measure
	Score        int
	Vertex       int32
}

// handlePoint answers the point query of one vertex: its score, or with
// withContexts its social contexts and their count. k is optional —
// absent or 0 means pfree semantics (the objective chooses the level),
// matching /topr; engine=pfree makes that explicit and rejects a non-zero
// k with 400, mirroring the library's BadQueryError.
func (s *Server) handlePoint(withContexts bool) handler {
	return func(_ http.ResponseWriter, r *http.Request) (any, error) {
		p := params{Values: r.URL.Query()}
		v, k := int32(p.int("v", 32, true)), int32(p.int("k", 32, false))
		switch eng := p.Get("engine"); {
		case p.err != nil:
		case eng != "" && eng != "pfree":
			// pfree is the only engine with point semantics of its own; any
			// other name would silently answer with default-path semantics,
			// so reject it rather than mislabel the response.
			p.err = fmt.Errorf("parameter \"engine\": point queries accept only engine=pfree, got %q", eng)
		case eng == "pfree" && k != 0:
			p.err = fmt.Errorf("engine \"pfree\" is parameter-free: leave k unset, got k=%d", k)
		}
		measure := p.measure()
		if p.err != nil {
			return nil, p.err
		}
		body := &pointResponse{WithContexts: withContexts, Vertex: v, K: k, Measure: measure.Normalize()}
		var err error
		if withContexts {
			if k == 0 {
				body.Contexts, err = s.db.ContextsPFree(r.Context(), v, measure)
			} else {
				body.Contexts, err = s.db.ContextsMeasure(r.Context(), v, k, measure)
			}
			body.Score = len(body.Contexts)
		} else if k == 0 {
			body.Score, err = s.db.ScorePFree(r.Context(), v, measure)
		} else {
			body.Score, err = s.db.ScoreMeasure(r.Context(), v, k, measure)
		}
		if err != nil {
			return nil, err
		}
		return body, nil
	}
}
