package core

import (
	"trussdiv/internal/dsu"
	"trussdiv/internal/graph"
)

// forestScratch is the package's one Kruskal kernel, over recycled
// storage. Three consumers read the maximum spanning forest it builds
// (paper Observations 2-3): the TSD index stores it, the GCT index
// compresses it (Algorithm 8), and the truss and core measures count
// their all-k score vectors off it — as in Lemma 3's N_k - M_k, the
// component count at threshold k is the number of vertices with an
// incident edge of weight >= k minus the number of forest edges of
// weight >= k.
type forestScratch struct {
	d      dsu.DSU
	start  []int32 // per weight, the next slot of its bin in order
	order  []int32 // edge IDs, weight-descending, ties ID-ascending
	forest []int32
	vw     []int32
	coreW  []int32 // edge weights of the core measure
}

// span runs Kruskal over lg with edge weights w (indexed by edge ID),
// visiting edges in descending weight with ties in ascending edge ID. It
// returns the forest's edge IDs in the order they were accepted, which is
// weight-descending, and each vertex's largest incident weight (0 when
// isolated). Both slices are owned by s and valid until the next call.
func (s *forestScratch) span(lg *graph.Graph, w []int32) (forest, vw []int32) {
	n := lg.N()
	s.vw = growInt32(s.vw, n)
	clear(s.vw)
	maxW := int32(0)
	for id, e := range lg.Edges() {
		t := w[id]
		s.vw[e.U] = max(s.vw[e.U], t)
		s.vw[e.V] = max(s.vw[e.V], t)
		maxW = max(maxW, t)
	}
	// Weights are small integers, so the sort is a linear bin pass:
	// exclusive prefix sums with the heaviest bin first.
	s.start = growInt32(s.start, int(maxW)+1)
	clear(s.start)
	for _, t := range w {
		s.start[t]++
	}
	acc := int32(0)
	for t := maxW; t >= 0; t-- {
		s.start[t], acc = acc, acc+s.start[t]
	}
	s.order = growInt32(s.order, len(w))
	for id, t := range w {
		s.order[s.start[t]] = int32(id)
		s.start[t]++
	}
	s.d.Init(n)
	s.forest = s.forest[:0]
	for _, id := range s.order {
		if len(s.forest) == n-1 {
			break
		}
		e := lg.Edge(id)
		if s.d.Union(e.U, e.V) {
			s.forest = append(s.forest, id)
		}
	}
	return s.forest, s.vw
}

// coreWeights returns the core measure's edge weights over s's storage:
// an edge lies in the k-core exactly when the smaller core number of its
// endpoints is >= k.
func (s *forestScratch) coreWeights(lg *graph.Graph, core []int32) []int32 {
	s.coreW = growInt32(s.coreW, lg.M())
	for id, e := range lg.Edges() {
		s.coreW[id] = min(core[e.U], core[e.V])
	}
	return s.coreW
}

// countAllK fills dst[:0] with the component counts of a spanned forest
// (forest and vw from span over weights w): dst[k] is the number of
// connected components of the weight->=k edges, indexed 2..max weight,
// entries 0 and 1 unused. Empty when no weight reaches 2.
func countAllK(forest, vw, w []int32, dst []int) []int {
	maxW := int32(0)
	for _, t := range vw {
		maxW = max(maxW, t)
	}
	if maxW < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxW)+1)
	clear(dst)
	for _, t := range vw {
		dst[t]++
	}
	for _, id := range forest {
		dst[w[id]]--
	}
	for k := maxW - 1; k >= 2; k-- {
		dst[k] += dst[k+1]
	}
	dst[0], dst[1] = 0, 0
	return dst
}
