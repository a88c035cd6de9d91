package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"trussdiv/internal/par"
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
	// Workers is the number of goroutines that score candidates (and
	// recover answer contexts): 0 or negative means GOMAXPROCS, 1 forces
	// the serial path. The workers claim blocks of candidates from a
	// shared counter, each scores its blocks into a private top-r heap,
	// and the heaps merge into one answer; score ties always resolve to
	// the smaller vertex ID, so the answer is byte-identical for every
	// worker count. The bound and tsd engines process their pruned
	// candidate order in growing chunks when parallel (the first holds
	// exactly R candidates), so their Stats.ScoreComputations may exceed
	// the serial count by up to one chunk (the answer is still identical).
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
	if p.K < 2 {
		return p, fmt.Errorf("core: trussness threshold k = %d, must be >= 2", p.K)
	}
	return p.normalizedNoK(n)
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
		var err error
		if p.Candidates, err = dedupCandidates(p.Candidates, n); err != nil {
			return p, err
		}
		limit = len(p.Candidates)
	}
	if p.R > limit {
		p.R = limit
	}
	return p, nil
}

// dedupCandidates validates a candidate list against an n-vertex graph
// and drops repeated IDs, the first occurrence winning: a duplicate ID
// would otherwise occupy several answer slots. Duplicates are found in a
// sorted copy, so the check costs two copies of the list whatever n is;
// the caller's slice is returned as is unless a duplicate actually exists.
func dedupCandidates(cands []int32, n int) ([]int32, error) {
	for _, v := range cands {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: candidate vertex %d out of range [0,%d)", v, n)
		}
	}
	distinct := slices.Compact(radixSorted(cands))
	if len(distinct) == len(cands) {
		return cands, nil
	}
	taken := make([]bool, len(distinct)) // the IDs already emitted
	deduped := make([]int32, 0, len(distinct))
	for _, v := range cands {
		if i, _ := slices.BinarySearch(distinct, v); !taken[i] {
			taken[i] = true
			deduped = append(deduped, v)
		}
	}
	return deduped, nil
}

// radixSorted returns an ascending copy of vs, whose values must be
// non-negative: a least-significant-digit radix sort by bytes, skipping
// the bytes all values share, between the two halves of one allocation.
// On a few thousand vertex IDs it runs several times faster than a
// comparison sort.
func radixSorted(vs []int32) []int32 {
	buf := make([]int32, 2*len(vs))
	a, b := buf[:len(vs)], buf[len(vs):]
	copy(a, vs)
	for shift := 0; shift < 32 && len(a) > 1; shift += 8 {
		var at [257]int
		for _, v := range a {
			at[v>>shift&0xff+1]++
		}
		if at[a[0]>>shift&0xff+1] == len(a) {
			continue // every value has this byte
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, v := range a {
			d := v >> shift & 0xff
			b[at[d]] = v
			at[d]++
		}
		a, b = b, a
	}
	return a
}

// pollEvery is how many cheap loop iterations pass between context
// checks: the par.For block size of loops whose body is a cheap read.
// Expensive loops (one ego decomposition per iteration) take block 1 and
// check on every iteration instead.
const pollEvery = 256

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
// decomposition per vertex — the dominant per-answer cost — so the answer
// vertices are handed one at a time to p.workers() goroutines (contexts
// must be safe for concurrent calls, which every engine's recovery is)
// and the context is polled before each.
func finishResult(ctx context.Context, answer []VertexScore, p Params, contexts func(v int32) [][]int32) (*Result, error) {
	res := &Result{TopR: answer}
	if p.SkipContexts {
		return res, nil
	}
	recovered := make([][][]int32, len(answer))
	err := par.For(ctx, len(answer), p.workers(), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := contexts(answer[i].V)
			if len(c) == 0 {
				c = nil // normalize: every engine reports "no contexts" as nil
			}
			recovered[i] = c
		}
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
