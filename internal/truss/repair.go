package truss

import (
	"trussdiv/internal/graph"
)

// Incremental repair of a truss decomposition after a batch of edge edits,
// following the locality bounds of arXiv:1806.05523 §5: a single insertion
// raises any τ(e) by at most one and a deletion lowers it by at most one,
// and — more importantly — the set of edges whose trussness can change at
// all is confined to a triangle-connected neighborhood of the edits:
//
//   - If τ(g) increased, the connected (τ_new(g))-truss certifying the new
//     value must contain an inserted edge (otherwise it existed before the
//     batch and certified the same value then), and every edge of that
//     truss had old trussness >= τ_new(g) − I for a batch of I insertions.
//     So g is triangle-connected to an inserted edge through edges whose
//     old level is >= level(g) + 1 − I.
//   - If τ(g) decreased, the old connected (τ_old(g))-truss certifying the
//     old value must contain a deleted edge (otherwise it survives intact
//     and still certifies), and every edge on the old-graph triangle path
//     had old level >= level(g).
//
// ("level" is the h-space value τ−2 throughout.) Repair discovers both
// regions with a bottleneck (maximin) traversal over triangle adjacency,
// seeds every region edge at the provable upper bound min(sup_new,
// h_old + I), pins everything outside the region at its old (provably
// unchanged) value, and runs the h-index descent of DecomposeParallel to
// the fixpoint. The descent can only terminate at the true decomposition:
// it stays >= τ−2 because the boundary equals the truth and the operator
// is monotone, and it cannot stay above it because any level set of a
// fixpoint is itself a truss certifying its level.

// RepairResult is a successfully repaired decomposition.
type RepairResult struct {
	Tau []int32 // trussness per new-graph edge ID, byte-equal to Decompose(newG)
	Sup []int32 // pristine supports of the new graph (input to the next Repair)
	// Region counts the edges whose trussness the repair re-derived (the
	// locality bound realized); Evals the h-index evaluations the descent
	// spent on them.
	Region int
	Evals  int
}

// repairInf is the level assigned to inserted edges during region
// discovery: a new edge constrains no triangle path, since it had no old
// trussness to certify.
const repairInf = int32(1) << 30

// Levels of newG edges that the current stage does not contain yet. Any
// negative level masks an edge out of every triangle a stage enumerates.
const (
	unclaimed = int32(-2) // in newG but not in oldG, not yet matched to an insertion
	masked    = int32(-1) // an insertion a later stage applies
)

// Repair derives the truss decomposition of newG from the decomposition
// (oldTau) and supports (oldSup) of oldG, where newG is the result of
// applying the canonical (U < V, validated) insertion and deletion batches
// to oldG — exactly the contract of core.ApplyEdits. budget caps the
// repairable region size per step (and, scaled, the traversal and descent
// work); 0 picks a default proportional to the graph. When the region the
// edits can influence exceeds the budget, Repair returns (nil, false) and
// the caller falls back to a full (parallel) rebuild — the returned bool
// is the size-cutoff policy, not an error.
//
// Internally a batch is repaired in stages: all deletions in one step
// (the decrease region needs no batch slack — its certificate lives
// entirely in the old graph), then each insertion individually. A single
// insertion raises any trussness by at most one, which keeps the
// admission threshold of the increase traversal tight; repairing an
// I-insertion batch in one step would widen it by I−1 levels and balloon
// the region past the budget for even small batches. Every stage runs on
// newG itself: a stage's graph is newG with the insertions of later
// stages masked out, and the old values move into newG's edge IDs once
// per batch, so a stage costs what its traversals and region reach, not
// O(m).
//
// On success the tau array is byte-identical to Decompose(newG): the
// repair is exact, not approximate.
func Repair(oldG, newG *graph.Graph, oldTau, oldSup []int32, ins, del []graph.Edge, budget int) (*RepairResult, bool) {
	mOld, mNew := oldG.M(), newG.M()
	if len(oldTau) != mOld || len(oldSup) != mOld || mNew != mOld+len(ins)-len(del) {
		return nil, false
	}
	if len(ins) == 0 && len(del) == 0 {
		return &RepairResult{
			Tau: append([]int32(nil), oldTau...),
			Sup: append([]int32(nil), oldSup...),
		}, true
	}
	r, ok := newRepairer(oldG, newG, oldTau, oldSup, ins)
	if !ok {
		return nil, false // newG does not match (oldG, ins, del)
	}
	if len(del) > 0 && !r.deleteStage(del, budget) {
		return nil, false
	}
	for _, x := range r.ins {
		if !r.insertStage(x, budget) {
			return nil, false
		}
	}
	tau := r.h
	for i := range tau {
		tau[i] += 2
	}
	return &RepairResult{Tau: tau, Sup: r.sup, Region: r.regionTotal, Evals: r.evals}, true
}

// repairer is the state of one Repair call, kept in newG's edge-ID space
// from the first stage to the last.
type repairer struct {
	oldG, newG *graph.Graph
	oldTau     []int32
	h, sup     []int32 // level (negative = masked) and support in the current stage's graph
	ins        []int32 // newG IDs of the insertions, in stage order
	stageM     int     // edges in the current stage's graph

	// Scratch shared by every stage; each stage clears what it touched.
	inRegion []bool
	region   []int32
	bn       *bottleneck
	desc     *hDescent

	regionTotal, evals int
}

// newRepairer carries the old values onto the new edge IDs and masks
// every insertion. Both graphs assign IDs in sorted (U,V) order, so one
// merge pass lines them up; the old edges skipped are the deletions, the
// new edges unmatched must be exactly the insertions (ok=false if not).
func newRepairer(oldG, newG *graph.Graph, oldTau, oldSup []int32, ins []graph.Edge) (*repairer, bool) {
	mOld, mNew := oldG.M(), newG.M()
	r := &repairer{
		oldG: oldG, newG: newG, oldTau: oldTau,
		h:        make([]int32, mNew),
		sup:      make([]int32, mNew),
		stageM:   mNew - len(ins),
		inRegion: make([]bool, mNew),
	}
	oldEdges, newEdges := oldG.Edges(), newG.Edges()
	unmatched, j := 0, 0
	for i, e := range newEdges {
		for j < mOld && graph.CompareEdges(oldEdges[j], e) < 0 {
			j++ // a deleted edge
		}
		if j < mOld && oldEdges[j] == e {
			r.h[i], r.sup[i] = oldTau[j]-2, oldSup[j]
			j++
		} else {
			r.h[i] = unclaimed
			unmatched++
		}
	}
	if unmatched != len(ins) {
		return nil, false
	}
	r.ins = make([]int32, len(ins))
	for k, e := range ins {
		id := newG.EdgeID(e.U, e.V)
		if id < 0 || r.h[id] != unclaimed {
			return nil, false // absent from newG, present in oldG, or listed twice
		}
		r.h[id] = masked
		r.ins[k] = id
	}
	// The increase traversals see levels of at most max τ−2 plus one per
	// insertion; the decrease traversal runs on τ itself (every level
	// shifted by 2, which preserves each comparison it makes). One bucket
	// range covers both.
	top := MaxTrussness(oldTau) + int32(len(ins)) + 1
	r.bn = newBottleneck(max(mOld, mNew), top)
	r.desc = newHDescent(newG, r.h, r.inRegion, 1)
	return r, true
}

// stageBudget is the region cap of the current stage.
func (r *repairer) stageBudget(budget int) int {
	if budget > 0 {
		return budget
	}
	// Default cutoff: repair while the affected region stays under half
	// the stage's graph. The descent costs O(region · triangles-per-edge),
	// so even at the cutoff the repair is well below a full decomposition;
	// past it, the parallel rebuild's better constants win. Deletions need
	// the headroom — a deleted edge's certificate region is the whole
	// triangle-connected truss community at each level below it, which
	// for low levels can span a sizable fraction of a sparse graph.
	return r.stageM/2 + 64
}

func (r *repairer) addRegion(e int32) {
	if e >= 0 && !r.inRegion[e] {
		r.inRegion[e] = true
		r.region = append(r.region, e)
	}
}

// deleteStage repairs the whole deletion set: the stage's graph goes from
// oldG to newG with every insertion masked.
func (r *repairer) deleteStage(del []graph.Edge, budget int) bool {
	budget = r.stageBudget(budget)
	oldG, newG, h := r.oldG, r.newG, r.h

	// Recompute supports exactly for every edge that shared a triangle
	// with a deletion. Counting common neighbors afresh sidesteps the
	// bookkeeping of triangles that lose several edges at once.
	src := make([]int32, 0, len(del))
	for _, e := range del {
		id := oldG.EdgeID(e.U, e.V)
		if id < 0 || newG.EdgeID(e.U, e.V) >= 0 {
			return false // newG does not match (oldG, ins, del)
		}
		src = append(src, id)
		forEachCommonArc(oldG, e.U, e.V, func(w, _, _ int32) {
			// Either side edge may itself be deleted (EdgeID then -1).
			r.addRegion(newG.EdgeID(e.U, w))
			r.addRegion(newG.EdgeID(e.V, w))
		})
	}
	for _, e := range r.region {
		ed := newG.Edge(e)
		n := int32(0)
		forEachCommonArc(newG, ed.U, ed.V, func(_, euw, evw int32) {
			if h[euw] >= 0 && h[evw] >= 0 {
				n++
			}
		})
		r.sup[e] = n
	}

	// Decrease candidates: bottleneck traversal from the deleted edges in
	// the old graph, at old levels throughout (no slack — the certificate
	// lives entirely in the old graph).
	if !r.bn.run(oldG, r.oldTau, src, 32*budget+4096) {
		return false
	}
	r.bn.drain(func(e, d int32) {
		if d >= r.oldTau[e] {
			ed := oldG.Edge(e)
			r.addRegion(newG.EdgeID(ed.U, ed.V))
		}
	})
	return r.descend(0, budget)
}

// insertStage repairs one insertion: the stage's graph gains edge x.
func (r *repairer) insertStage(x int32, budget int) bool {
	r.stageM++
	budget = r.stageBudget(budget)
	newG, h, sup := r.newG, r.h, r.sup

	// x closes one triangle with every common neighbor whose two edges the
	// stage already has, so each side edge's support grows by exactly one.
	// Unmasked, x sits at repairInf until the descent seeds it.
	h[x] = repairInf
	r.addRegion(x)
	ed := newG.Edge(x)
	forEachCommonArc(newG, ed.U, ed.V, func(_, euw, evw int32) {
		if h[euw] >= 0 && h[evw] >= 0 {
			sup[x]++
			sup[euw]++
			sup[evw]++
			r.addRegion(euw)
			r.addRegion(evw)
		}
	})

	// Increase candidates: bottleneck traversal from x in the stage's
	// graph. One insertion lifts a trussness by at most one, so the
	// admission threshold needs no slack.
	if !r.bn.run(newG, h, []int32{x}, 32*budget+4096) {
		return false
	}
	r.bn.drain(func(e, d int32) {
		if d >= h[e] {
			r.addRegion(e)
		}
	})
	return r.descend(1, budget)
}

// descend seeds every region edge at its provable cap — its stage
// support, and for a carried edge at most the stage's insertion count
// above its previous level — and descends to the fixpoint. Edges outside
// the region keep their value: the region theorems above guarantee it is
// still exact, and they serve as the fixed boundary that stops the
// descent from undershooting.
func (r *repairer) descend(ins int32, budget int) bool {
	if len(r.region) > budget {
		return false
	}
	for _, e := range r.region {
		r.h[e] = min(r.sup[e], r.h[e]+ins)
	}
	evals, ok := r.desc.run(r.region, 16*budget+1024)
	r.regionTotal += len(r.region)
	r.evals += evals
	for _, e := range r.region {
		r.inRegion[e] = false
	}
	r.region = r.region[:0]
	return ok
}

// bottleneck is the scratch of the maximin traversal, shared by every
// stage of one Repair. The buckets of one run are linked lists threaded
// through a single queue of entries, so the scratch is sized once, by the
// graph, rather than grown per bucket and per stage.
type bottleneck struct {
	dist  []int32   // per edge; −1 = unreached
	head  []int32   // head[d]: the newest entry queued at bottleneck d, −1 = none
	queue []bnEntry // every entry the current run queued
}

// bnEntry queues edge e; next is the entry queued before it at the same
// bottleneck.
type bnEntry struct{ e, next int32 }

// newBottleneck sizes the scratch for edge IDs below m and levels up to
// top; larger levels are clamped to top.
func newBottleneck(m int, top int32) *bottleneck {
	b := &bottleneck{dist: make([]int32, m), head: make([]int32, top+1), queue: make([]bnEntry, 0, m)}
	for i := range b.dist {
		b.dist[i] = -1
	}
	for i := range b.head {
		b.head[i] = -1
	}
	return b
}

func (b *bottleneck) push(e, d int32) {
	b.dist[e] = d
	b.queue = append(b.queue, bnEntry{e, b.head[d]})
	b.head[d] = int32(len(b.queue) - 1)
}

// run computes, for every edge of g reachable from the sources, the best
// bottleneck over triangle paths from any source edge: dist(f) = max over
// paths of the minimum level among all path edges except f itself
// (sources included, the target excluded — its own level never constrains
// its candidacy). Edges with a negative level are masked out of g: no
// triangle through one is followed. Levels above top are clamped to it,
// which preserves every >= comparison the caller makes as long as top
// exceeds every finite level. Processing buckets from high to low makes
// each relaxation final (the maximin analogue of Dijkstra). drain then
// reports the reached edges. ok=false reports that the scan budget blew
// before the traversal finished, or that a source was listed twice; the
// scratch is then spent.
func (b *bottleneck) run(g *graph.Graph, lvl, sources []int32, maxScans int) (ok bool) {
	dist, head := b.dist, b.head
	top := int32(len(head) - 1)
	clamp := func(l int32) int32 {
		if l > top {
			return top
		}
		return l
	}
	for _, s := range sources {
		if dist[s] == top {
			return false
		}
		b.push(s, top)
	}
	scans := 0
	for d := top; d >= 0; d-- {
		// Relaxations at level d may queue more entries at d; they are
		// popped in the same sweep. Later sweeps only queue lower.
		for head[d] >= 0 {
			q := b.queue[head[d]]
			head[d] = q.next
			e := q.e
			if dist[e] != d {
				continue // superseded entry (lazy deletion)
			}
			base := min(d, clamp(lvl[e]))
			ed := g.Edge(e)
			forEachCommonArc(g, ed.U, ed.V, func(_, euw, evw int32) {
				lu, lv := lvl[euw], lvl[evw]
				if lu < 0 || lv < 0 {
					return
				}
				scans++
				if nb := min(base, clamp(lv)); nb > dist[euw] {
					b.push(euw, nb)
				}
				if nb := min(base, clamp(lu)); nb > dist[evw] {
					b.push(evw, nb)
				}
			})
			if scans > maxScans {
				return false
			}
		}
	}
	return true
}

// drain calls fn once per edge the last run reached, with its bottleneck,
// and resets the scratch in time proportional to what the run queued.
func (b *bottleneck) drain(fn func(e, d int32)) {
	for _, q := range b.queue {
		if d := b.dist[q.e]; d >= 0 {
			fn(q.e, d)
			b.dist[q.e] = -1
		}
	}
	b.queue = b.queue[:0]
}
