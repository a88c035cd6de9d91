package trussdiv

import "trussdiv/internal/core"

// Query describes one top-r structural diversity search. Construct it
// with NewQuery plus functional options, or fill the fields directly —
// the zero value of the optional fields is the default behavior.
type Query struct {
	// K is the trussness threshold of the social contexts (>= 2) for the
	// fixed-k engines. Left at 0 the query is parameter-free: it routes
	// to the pfree engine, which aggregates every threshold into one
	// score and forbids a K. K = 1 (or a K given to a parameter-free
	// engine, or a missing K on a fixed-k pin) fails with a
	// *BadQueryError matching errors.Is(err, ErrBadQuery).
	K int32
	// R is the answer size (>= 1; capped at the candidate count).
	R int
	// IncludeContexts requests the social contexts of every answer
	// vertex. Context recovery is the dominant per-answer cost for the
	// online and hybrid engines, so it is off by default.
	IncludeContexts bool
	// Candidates restricts the search to a vertex subset; nil searches
	// every vertex. Out-of-range IDs are an error.
	Candidates []int32
	// SkipStats sets the *Stats that TopR returns to nil. The answer, and
	// the result cache entry it shares with the same query asked with
	// stats, are unchanged.
	SkipStats bool
	// Workers is the number of goroutines the engine may use to score
	// candidates and recover contexts: 0 or negative means GOMAXPROCS,
	// 1 forces serial execution. The answer is byte-identical for every
	// worker count (ties resolve by vertex ID).
	Workers int
	// Engine pins this query to the named engine, overriding cost
	// routing. Empty means no pin. Unknown names fail with a
	// *UnknownEngineError.
	Engine string
	// Measure selects the structural diversity definition: MeasureTruss
	// (the default; "" means the same), MeasureComponent, or MeasureCore.
	// Routing considers only engines that serve the measure; a query that
	// pins an Engine outside the measure's row of the routing matrix fails
	// with an *UnsupportedMeasureError. An empty Measure combined with a
	// pinned Engine means that engine's native definition, so pre-measure
	// callers of engine=comp/kcore keep their behavior.
	Measure Measure
}

// QueryOption customizes a Query built by NewQuery.
type QueryOption func(*Query)

// NewQuery returns a Query for the top r vertices under trussness
// threshold k, customized by opts. k = 0 builds a parameter-free query
// (served by the pfree engine).
func NewQuery(k int32, r int, opts ...QueryOption) Query {
	q := Query{K: k, R: r}
	for _, opt := range opts {
		opt(&q)
	}
	return q
}

// WithContexts requests the social contexts of every answer vertex.
func WithContexts() QueryOption {
	return func(q *Query) { q.IncludeContexts = true }
}

// WithCandidates restricts the search to the given vertices (e.g. the
// members of one community, or the result of an upstream filter).
func WithCandidates(vs ...int32) QueryOption {
	return func(q *Query) { q.Candidates = vs }
}

// WithoutStats makes TopR return a nil *Stats; the search and the
// result cache entry are those of the same query with stats.
func WithoutStats() QueryOption {
	return func(q *Query) { q.SkipStats = true }
}

// WithWorkers sets the worker-pool size for this query: n goroutines
// claim blocks of candidates (0 or negative = GOMAXPROCS, 1 = serial).
// Results are byte-identical to serial execution for every n.
func WithWorkers(n int) QueryOption {
	return func(q *Query) { q.Workers = n }
}

// ViaEngine pins the query to the named engine, bypassing cost routing;
// pins are per query, so one batch can mix pinned and routed queries.
func ViaEngine(name string) QueryOption {
	return func(q *Query) { q.Engine = name }
}

// WithMeasure selects the structural diversity definition the query is
// answered under (MeasureTruss, MeasureComponent, MeasureCore); omitted,
// the query uses the paper's truss-based default.
func WithMeasure(m Measure) QueryOption {
	return func(q *Query) { q.Measure = m }
}

// params translates the public Query into the internal search parameters.
func (q Query) params() core.Params {
	return core.Params{
		K:            q.K,
		R:            q.R,
		Candidates:   q.Candidates,
		SkipContexts: !q.IncludeContexts,
		Workers:      q.Workers,
		Measure:      q.Measure,
	}
}
