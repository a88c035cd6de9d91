package truss

import (
	"context"
	"math"
	"slices"

	"trussdiv/internal/graph"
	"trussdiv/internal/par"
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

// hBlock is how many frontier edges an evaluation round's workers claim
// at a time, matching the per-vertex builders' full-build block
// (core.BuildAll).
const hBlock = 256

// DecomposeParallel returns the same tau array as Decompose, computed by
// h-index iteration spread over the given number of workers (0 or
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
	// Both paths consume a private copy, so sup goes back pristine (the
	// loadbench replay of Repair seeds from it).
	h := append([]int32(nil), sup...)
	if par.Workers(workers) == 1 {
		s := Scratch{sup: h}
		return s.peel(g, math.MaxInt32), sup
	}
	d := newHDescent(g, h, nil, workers)
	d.run(nil, 0)
	for e := range h {
		h[e] += 2
	}
	return h, sup
}

// hEval computes the constrained triangle h-index of edge e: the largest
// t <= h[e] such that at least t triangles through e have both partner
// edges valued >= t. Capping at the current value loses nothing (the
// uncapped h-index can only confirm the cap) and bounds the counting
// buffer, which hEval grows to h[e]+1 on demand. A triangle with a
// partner valued below 1 counts for nothing — which is how the repair's
// masked edges (negative values) drop out of every triangle.
func hEval(g *graph.Graph, h []int32, e int32, cntp *[]int32) int32 {
	c := h[e]
	if c <= 0 {
		return 0
	}
	if int(c) >= len(*cntp) {
		*cntp = make([]int32, max(int(c)+1, 2*len(*cntp)))
	}
	cnt := *cntp
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

// hDescent is the h-index iteration over one value array h, with the
// scratch its runs share. The cold decomposition makes one run over every
// edge; the incremental repair makes one run per stage over that stage's
// region, so nothing here is sized by more than the graph once.
type hDescent struct {
	g       *graph.Graph
	h       []int32
	region  []bool // nil = any edge may be re-evaluated
	workers int

	// queued holds generation stamps that dedupe each next frontier;
	// round, the last stamp issued, keeps rising across runs, so stale
	// stamps never need clearing.
	queued []int32
	round  int32
	cnt    [][]int32   // per-worker counting buffers, grown by hEval
	staged [][]hChange // per-worker value drops of the current round
	cur    []int32
	next   []int32
}

// newHDescent prepares runs over h. When region is non-nil, only edges
// marked in it are ever re-evaluated — the containment guarantee the
// incremental repair relies on; the caller may change the marks between
// runs. workers <= 0 means GOMAXPROCS.
func newHDescent(g *graph.Graph, h []int32, region []bool, workers int) *hDescent {
	workers = par.Workers(workers)
	return &hDescent{g: g, h: h, region: region, workers: workers,
		queued: make([]int32, g.M()), cnt: make([][]int32, workers),
		staged: make([][]hChange, workers)}
}

// run iterates to the fixpoint, mutating h in place. frontier is the
// initial set of edges to evaluate (nil = every edge); it is copied, not
// kept. maxEvals > 0 aborts the descent (returning ok=false, h partially
// lowered) once that many evaluations have run; the evaluation count is
// returned either way.
func (d *hDescent) run(frontier []int32, maxEvals int) (evals int, ok bool) {
	g, h, region, queued, staged := d.g, d.h, d.region, d.queued, d.staged
	if frontier == nil {
		frontier = slices.Grow(d.cur[:0], g.M())
		for e := range int32(g.M()) {
			frontier = append(frontier, e)
		}
	} else {
		frontier = append(d.cur[:0], frontier...)
	}
	next := slices.Grow(d.next[:0], len(frontier))
	defer func() { d.cur, d.next = frontier, next }()
	for len(frontier) > 0 {
		d.round++
		round := d.round
		evals += len(frontier)
		if maxEvals > 0 && evals > maxEvals {
			return evals, false
		}
		// Jacobi round: workers only read h and append to their own
		// staged list, so concurrent evaluation needs no synchronization
		// beyond the end-of-round barrier.
		for w := range staged {
			staged[w] = staged[w][:0]
		}
		// The background context never reports an error, so neither does For.
		_ = par.For(context.Background(), len(frontier), d.workers, hBlock, func(w, lo, hi int) {
			for _, e := range frontier[lo:hi] {
				if nv := hEval(g, h, e, &d.cnt[w]); nv < h[e] {
					staged[w] = append(staged[w], hChange{e, nv})
				}
			}
		})
		next = next[:0]
		for _, changes := range staged {
			for _, ch := range changes {
				h[ch.e] = ch.v
			}
		}
		// An edge f needs re-evaluation only when some triangle partner
		// dropped below f's current value: pairs whose min stays >= h[f]
		// contribute to f's capped counts exactly as before.
		for _, changes := range staged {
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
		}
		frontier, next = next, frontier
	}
	return evals, true
}
