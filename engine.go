package trussdiv

import "context"

// Engine is the uniform face of every top-r structural diversity
// searcher. The DB serves a fixed catalogue of eight — online (Alg. 3),
// bound (Alg. 4), tsd (Alg. 5-6), gct (Alg. 7-8), hybrid (Exp-4), the
// comp/kcore native measure engines, and the parameter-free pfree engine
// — fetched by name with DB.Engine or pinned per query with ViaEngine.
// Engines only search: point queries (DB.Score, DB.ScoreMeasure,
// DB.ScorePFree and their Contexts twins) are answered by the snapshot,
// from the GCT index or the shared scorer of the measure.
//
// Every engine is one entry of the catalogue, and TopR holds a query to
// the same contract as a ViaEngine pin to that engine, with the same
// errors: a Measure that names no measure fails with the ParseMeasure
// error, one outside the measures the engine serves (Measures) with an
// *UnsupportedMeasureError, and a K the engine does not take (below 2
// for the fixed-k engines, anything but 0 for pfree) with a
// *BadQueryError.
//
// All methods honor context cancellation: a search observes ctx inside
// its hot loops and returns ctx.Err() promptly, including when ctx is
// already cancelled on entry — TopR reports a cancelled ctx before
// checking the query.
type Engine interface {
	// Name is the catalogue key ("online", "bound", "tsd", "gct",
	// "hybrid", "comp", "kcore", "pfree").
	Name() string
	// Measures lists the diversity measures the engine serves; an engine
	// serving exactly one answers under it when a query leaves Measure
	// empty. The slice is shared: callers must not modify it.
	Measures() []Measure
	// TopR answers a top-r query.
	TopR(ctx context.Context, q Query) (*Result, *Stats, error)
	// Cost estimates the work q requires, for routing. Estimates are
	// relative, not wall-clock: only comparisons between engines over the
	// same graph are meaningful.
	Cost(q Query) Estimate
}

// Estimate is an engine's predicted effort for one query, in abstract
// work units (roughly: edge visits). Build is the one-time cost to make
// the engine ready — zero once its index is built — and Query is the
// per-query cost afterwards. Routing picks the engine minimizing
// Build/batchSize + Query (batchSize 1 for a single query).
type Estimate struct {
	Build float64
	Query float64
}

// workload caches the graph quantities the cost model needs. egoWork is
// Σ_v d(v)², a proxy for the total cost of decomposing every ego-network
// (the dominant term of both the online search and an index build).
type workload struct {
	n, m    float64
	avgDeg  float64
	egoWork float64
}

func measure(g *Graph) workload {
	w := workload{n: float64(g.N()), m: float64(g.M())}
	for v := int32(0); int(v) < g.N(); v++ {
		d := float64(g.Degree(v))
		w.egoWork += d * d
	}
	if w.n > 0 {
		w.avgDeg = 2 * w.m / w.n
	}
	return w
}

// searchWork scales a whole-graph effort estimate down to the candidate
// subset of q, if one is given.
func (w workload) searchWork(full float64, q Query) float64 {
	if q.Candidates == nil || w.n == 0 {
		return full
	}
	return full * float64(len(q.Candidates)) / w.n
}

// contextWork estimates the per-answer online context recovery cost that
// the online and hybrid engines pay when contexts are requested.
func (w workload) contextWork(q Query) float64 {
	if !q.IncludeContexts {
		return 0
	}
	return float64(q.R) * w.avgDeg * w.avgDeg
}
