package truss

import (
	"runtime"
	"sync"

	"trussdiv/internal/graph"
)

// Parallel truss decomposition by iterated triangle h-indexes ("Bounds and
// algorithms for graph trusses", arXiv:1806.05523). Instead of peeling
// edges one at a time in a global order (Decompose), every edge starts at
// its support and repeatedly replaces its value with the h-index of the
// multiset {min(h(e1), h(e2)) : triangle (e, e1, e2)}. The operator is
// monotone non-increasing from the support seed, every intermediate value
// stays an upper bound on τ(e)−2, and the greatest fixpoint reached is
// exactly τ(e)−2 — independent of update order, so the result is
// byte-identical to the serial peeling. Rounds are synchronous (Jacobi):
// workers read a stable value array and stage their updates in private
// change lists that are applied after a barrier, which keeps the whole
// pass race-free; only edges with a changed triangle neighborhood are
// re-evaluated in the next round.

// hBlock is the work-stealing granularity of a parallel evaluation round,
// matching the per-vertex builders' full-build sharding (core.BuildAll).
const hBlock = 256

// DecomposeParallel returns the same tau array as Decompose, computed by
// h-index iteration sharded across the given number of workers (0 or
// negative = GOMAXPROCS). With one worker it falls back to the serial
// bin-sort peeling, which does strictly less work per edge.
func DecomposeParallel(g *graph.Graph, workers int) []int32 {
	tau, _ := DecomposeFull(g, workers)
	return tau
}

// DecomposeFull is DecomposeParallel returning the edge supports as well,
// unconsumed — callers that maintain the decomposition incrementally
// (Repair) need the pristine supports of the graph the tau array
// describes.
func DecomposeFull(g *graph.Graph, workers int) (tau, sup []int32) {
	sup = g.Supports()
	if g.M() == 0 {
		return []int32{}, sup
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return DecomposeWithSupports(g, sup), sup
	}
	h := append([]int32(nil), sup...)
	hIndexDescent(g, h, nil, nil, workers, 0)
	for e := range h {
		h[e] += 2
	}
	return h, sup
}

// hEval computes the constrained triangle h-index of edge e: the largest
// t <= h[e] such that at least t triangles through e have both partner
// edges valued >= t. Capping at the current value loses nothing (the
// uncapped h-index can only confirm the cap) and bounds the counting
// buffer. cnt needs length >= h[e]+1.
func hEval(g *graph.Graph, h []int32, e int32, cnt []int32) int32 {
	c := h[e]
	if c <= 0 {
		return 0
	}
	for i := int32(1); i <= c; i++ {
		cnt[i] = 0
	}
	ed := g.Edge(e)
	forEachCommonArc(g, ed.U, ed.V, func(_, euw, evw int32) {
		m := h[euw]
		if h[evw] < m {
			m = h[evw]
		}
		if m > c {
			m = c
		}
		if m > 0 {
			cnt[m]++
		}
	})
	cum := int32(0)
	for t := c; t >= 1; t-- {
		cum += cnt[t]
		if cum >= t {
			return t
		}
	}
	return 0
}

// hChange stages one staged value drop of a synchronous round.
type hChange struct{ e, v int32 }

// hIndexDescent runs the h-index iteration to its fixpoint, mutating h in
// place. frontier is the initial set of edges to evaluate (nil = every
// edge); when region is non-nil, only edges marked in it are ever
// re-evaluated — the containment guarantee the incremental repair relies
// on. maxEvals > 0 aborts the descent (returning ok=false, h partially
// lowered) once that many evaluations have run; the evaluation count is
// returned either way.
func hIndexDescent(g *graph.Graph, h []int32, frontier []int32, region []bool, workers, maxEvals int) (evals int, ok bool) {
	m := g.M()
	if frontier == nil {
		frontier = make([]int32, m)
		for i := range frontier {
			frontier[i] = int32(i)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxH := int32(0)
	for _, v := range h {
		if v > maxH {
			maxH = v
		}
	}
	scratch := make([][]int32, workers)
	for w := range scratch {
		scratch[w] = make([]int32, maxH+1)
	}
	queued := make([]int32, m) // generation stamps dedupe the next frontier
	round := int32(0)
	next := make([]int32, 0, len(frontier))
	for len(frontier) > 0 {
		round++
		evals += len(frontier)
		if maxEvals > 0 && evals > maxEvals {
			return evals, false
		}
		var changes []hChange
		if workers == 1 || len(frontier) < 2*hBlock {
			cnt := scratch[0]
			for _, e := range frontier {
				if nv := hEval(g, h, e, cnt); nv < h[e] {
					changes = append(changes, hChange{e, nv})
				}
			}
		} else {
			// Jacobi round: workers only read h and write private lists,
			// so concurrent evaluation needs no synchronization beyond the
			// end-of-round barrier.
			staged := make([][]hChange, workers)
			blocks := make(chan int, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cnt := scratch[w]
					var out []hChange
					for start := range blocks {
						end := min(start+hBlock, len(frontier))
						for _, e := range frontier[start:end] {
							if nv := hEval(g, h, e, cnt); nv < h[e] {
								out = append(out, hChange{e, nv})
							}
						}
					}
					staged[w] = out
				}(w)
			}
			for start := 0; start < len(frontier); start += hBlock {
				blocks <- start
			}
			close(blocks)
			wg.Wait()
			for _, out := range staged {
				changes = append(changes, out...)
			}
		}
		next = next[:0]
		for _, ch := range changes {
			h[ch.e] = ch.v
		}
		// An edge f needs re-evaluation only when some triangle partner
		// dropped below f's current value: pairs whose min stays >= h[f]
		// contribute to f's capped counts exactly as before.
		for _, ch := range changes {
			ed := g.Edge(ch.e)
			forEachCommonArc(g, ed.U, ed.V, func(_, euw, evw int32) {
				if h[euw] > ch.v && queued[euw] != round && (region == nil || region[euw]) {
					queued[euw] = round
					next = append(next, euw)
				}
				if h[evw] > ch.v && queued[evw] != round && (region == nil || region[evw]) {
					queued[evw] = round
					next = append(next, evw)
				}
			})
		}
		frontier, next = next, frontier
	}
	return evals, true
}
