package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
)

// Params parameterizes one top-r search. The zero value is invalid: K and
// R carry the paper's preconditions (k >= 2, r >= 1). The remaining
// fields tune what the engines compute beyond the ranked answer.
type Params struct {
	// K is the trussness threshold of the social contexts (>= 2). The
	// engines that also serve the parameter-free objective (Online,
	// Ranked) take K = 0 to select it; Bound, TSD and GCT reject it.
	K int32
	// R is the answer size (>= 1; capped at the candidate count).
	R int
	// Candidates restricts the search to a vertex subset; nil means every
	// vertex of the graph. Out-of-range IDs are an error.
	Candidates []int32
	// SkipContexts omits social-context recovery from the Result. For the
	// rankings-backed engine (Ranked) context recovery is the dominant
	// query cost, so callers that only need the ranking should set it.
	SkipContexts bool
	// SkipStats suppresses the Stats return (the search still runs
	// identically; the *Stats result is nil).
	SkipStats bool
	// Workers is the number of goroutines that score candidates (and
	// recover answer contexts): 0 or negative means GOMAXPROCS, 1 forces
	// the serial path. Candidates are sharded across the pool, each worker
	// scores its shard into a private top-r heap, and the heaps merge into
	// one answer; score ties always resolve to the smaller vertex ID, so
	// the answer is byte-identical for every worker count. The bound and
	// tsd engines process their pruned candidate order in growing chunks
	// when parallel (the first holds exactly R candidates), so their
	// Stats.ScoreComputations may exceed the serial count by up to one
	// chunk (the answer is still identical).
	Workers int
	// Measure selects the structural diversity definition ("" or
	// MeasureTruss = the paper's truss-based model). The Online and Bound
	// engines serve every measure, a Ranked table serves the measure it
	// was scored under, and the index engines (TSD, GCT) serve only the
	// truss measure; mismatches fail with an *UnsupportedMeasureError.
	Measure Measure
}

// maxWorkers is a safety bound on the per-search pool size: beyond it
// extra goroutines only add scheduling overhead (and shrink the ranked
// scan's early-termination granularity), so larger requests are clamped.
// Untrusted inputs should be clamped harder at the boundary (the HTTP
// layer caps at GOMAXPROCS).
const maxWorkers = 1024

// workers resolves the Workers field to a concrete pool size.
func (p Params) workers() int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, maxWorkers)
}

// normalized validates p against an n-vertex graph and caps R at the
// candidate count, mirroring the paper's §2.3 preconditions.
func (p Params) normalized(n int) (Params, error) {
	if err := CheckThreshold(p.K); err != nil {
		return p, err
	}
	return p.normalizedNoK(n)
}

// CheckThreshold is the fixed-k precondition on a threshold: k >= 2.
func CheckThreshold(k int32) error {
	if k < 2 {
		return fmt.Errorf("core: trussness threshold k = %d, must be >= 2", k)
	}
	return nil
}

// normalizedOrPFree is normalized for the engines that also answer the
// parameter-free query: K = 0 selects it and skips the threshold check.
func (p Params) normalizedOrPFree(n int) (Params, error) {
	if p.K == 0 {
		return p.normalizedNoK(n)
	}
	return p.normalized(n)
}

// normalizedNoK is the K-independent part of parameter validation: R,
// measure, and candidate checks, candidate dedup, and the R cap.
func (p Params) normalizedNoK(n int) (Params, error) {
	if p.R < 1 {
		return p, fmt.Errorf("core: r = %d, must be >= 1", p.R)
	}
	if !p.Measure.Valid() {
		return p, fmt.Errorf("core: unknown measure %q (known: truss|component|core)", p.Measure)
	}
	limit := n
	if p.Candidates != nil {
		// Validate and deduplicate (first occurrence wins): a duplicate ID
		// would otherwise occupy several answer slots. The caller's slice
		// is only copied when a duplicate actually exists.
		seen := make(map[int32]bool, len(p.Candidates))
		deduped := p.Candidates
		copied := false
		for i, v := range p.Candidates {
			if v < 0 || int(v) >= n {
				return p, fmt.Errorf("core: candidate vertex %d out of range [0,%d)", v, n)
			}
			if seen[v] {
				if !copied {
					deduped = append([]int32{}, p.Candidates[:i]...)
					copied = true
				}
				continue
			}
			seen[v] = true
			if copied {
				deduped = append(deduped, v)
			}
		}
		p.Candidates = deduped
		limit = len(p.Candidates)
	}
	if p.R > limit {
		p.R = limit
	}
	return p, nil
}

// pollEvery is how many cheap loop iterations pass between context
// checks. Expensive loops (one ego decomposition per iteration) check on
// every iteration instead.
const pollEvery = 256

// forEachCandidate iterates the candidate set (all n vertices when cands
// is nil), polling ctx between iterations. everyIter selects per-iteration
// polling for loops whose body is expensive; otherwise the context is
// checked every pollEvery iterations.
func forEachCandidate(ctx context.Context, n int, cands []int32, everyIter bool, f func(v int32)) error {
	poll := func(i int) error {
		if everyIter || i%pollEvery == 0 {
			return ctx.Err()
		}
		return nil
	}
	if cands == nil {
		for v := int32(0); int(v) < n; v++ {
			if err := poll(int(v)); err != nil {
				return err
			}
			f(v)
		}
		return nil
	}
	for i, v := range cands {
		if err := poll(i); err != nil {
			return err
		}
		f(v)
	}
	return nil
}

// padAnswer offers every unscored candidate to the heap at score 0 so the
// answer stays canonical when pruning skipped part of the candidate set:
// zero-score slots must go to the smallest unused vertex IDs (the order the
// online engine would produce), not to whichever zero-score vertices
// happened to be scored. Candidates are offered in ascending ID order and
// the pass stops as soon as no zero-score entry can still be displaced.
func padAnswer(heap *topRHeap, n int, cands []int32) {
	if heap.r == 0 || (heap.Full() && heap.MinScore() > 0) {
		return
	}
	in := make(map[int32]bool, len(heap.entries))
	for _, e := range heap.entries {
		in[e.V] = true
	}
	if cands != nil {
		// The caller's candidate order is a search order, not an ID order;
		// pad from a sorted copy so ties at score 0 resolve by vertex ID.
		cands = append([]int32(nil), cands...)
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	}
	// In ascending order, the first rejected zero-score offer ends the
	// pass: every later candidate has a larger ID and loses the same tie.
	offer := func(v int32) bool {
		if in[v] {
			return true
		}
		return heap.Offer(v, 0) || !heap.Full()
	}
	if cands == nil {
		for v := int32(0); int(v) < n; v++ {
			if !offer(v) {
				return
			}
		}
		return
	}
	for _, v := range cands {
		if !offer(v) {
			return
		}
	}
}

// finishResult assembles the Result, recovering the social contexts of
// every answer vertex unless p.SkipContexts. Recovery is typically one ego
// decomposition per vertex — the dominant per-answer cost — so it is
// sharded across p.workers() goroutines (contexts must be safe for
// concurrent calls, which every engine's recovery is) and the context is
// polled on every iteration.
func finishResult(ctx context.Context, answer []VertexScore, p Params, contexts func(v int32) [][]int32) (*Result, error) {
	res := &Result{TopR: answer}
	if p.SkipContexts {
		return res, nil
	}
	recovered := make([][][]int32, len(answer))
	err := forEachSharded(ctx, len(answer), p.workers(), true, func(i int) {
		c := contexts(answer[i].V)
		if len(c) == 0 {
			c = nil // normalize: every engine reports "no contexts" as nil
		}
		recovered[i] = c
	})
	if err != nil {
		return nil, err
	}
	res.Contexts = make(map[int32][][]int32, len(answer))
	for i, e := range answer {
		res.Contexts[e.V] = recovered[i]
	}
	return res, nil
}

// exportStats applies the stats opt-out.
func exportStats(stats *Stats, p Params) *Stats {
	if p.SkipStats {
		return nil
	}
	return stats
}
