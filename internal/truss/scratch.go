package truss

import (
	"math"
	"math/bits"

	"trussdiv/internal/dsu"
	"trussdiv/internal/graph"
)

// Scratch owns the reusable peeling and counting state one worker needs
// to decompose and score ego-network-sized graphs without allocating in
// steady state. The zero value is ready to use. A Scratch is not safe
// for concurrent use — each worker owns exactly one — and the slices
// returned by DecomposeInto, KTrussInto and DecomposeBitmapInto are
// views over the Scratch, valid only until its next use. See DESIGN.md
// "Scratch ownership contract".
type Scratch struct {
	// peeling state (DecomposeInto, KTrussInto, DecomposeBitmapInto)
	sup      []int32
	tau      []int32
	binStart []int32
	sorted   []int32
	pos      []int32
	cursor   []int32
	removed  []bool

	// listing marker (DecomposeInto, KTrussInto) for graph.SupportsInto:
	// all zero between calls.
	mark []int32

	// bitmap mode (DecomposeBitmapInto): vertex v's adjacency row is
	// rows[v*words : (v+1)*words]; words == 0 selects the merge mode.
	rows  []uint64
	words int

	// component state (CountComponents / Components)
	d     dsu.DSU
	seen  []int32 // stamped membership marks
	stamp int32
	gr    dsu.Grouper
}

// DecomposeInto is Decompose over s's recycled storage: KTrussInto with
// no threshold, so the peel runs to the end. The returned tau is owned by
// s and valid only until the next decomposition.
func (s *Scratch) DecomposeInto(g *graph.Graph) []int32 {
	return s.KTrussInto(g, math.MaxInt32)
}

// KTrussInto decomposes g for one threshold k: supports are counted by
// one oriented triangle listing (graph.SupportsInto, over s's own sup
// and marker), and the peel stops once the lowest live support is at
// least k−2, since every edge still live then lies in the k-truss, and
// gives those edges τ = k. Every edge below the k-truss gets its exact
// trussness, so CountComponents and Components at k read the returned
// tau exactly as they read DecomposeInto's; other thresholds must not. A
// k below 2 peels nothing and gives every edge τ = 2. The returned tau
// is owned by s and valid only until the next decomposition.
func (s *Scratch) KTrussInto(g *graph.Graph, k int32) []int32 {
	s.words = 0
	s.sup = grow(s.sup, g.M())
	if len(s.mark) < g.N() {
		s.mark = make([]int32, g.N())
	}
	g.SupportsInto(s.sup, s.mark)
	return s.peel(g, max(k, 2))
}

// DecomposeBitmapInto is DecomposeInto with paper §6.2's bitmap supports:
// each vertex gets a row of n bits over s's storage, an edge's support is
// the popcount of the AND of its endpoint rows, and the peel clears a
// removed edge's two bits so the AND of the rows lists only the live
// triangles through the next edge. It suits small, dense graphs such as
// ego-networks, where the rows (n²/8 bytes) stay small. The returned tau
// is owned by s and valid only until the next decomposition.
func (s *Scratch) DecomposeBitmapInto(g *graph.Graph) []int32 {
	n, m := g.N(), g.M()
	s.words = (n + 63) / 64
	s.rows = grow(s.rows, n*s.words)
	clear(s.rows)
	for _, e := range g.Edges() {
		s.row(e.U)[e.V/64] |= 1 << (e.V % 64)
		s.row(e.V)[e.U/64] |= 1 << (e.U % 64)
	}
	s.sup = grow(s.sup, m)
	for id, e := range g.Edges() {
		ru, rv := s.row(e.U), s.row(e.V)
		c := 0
		for i, w := range ru {
			c += bits.OnesCount64(w & rv[i])
		}
		s.sup[id] = int32(c)
	}
	return s.peel(g, math.MaxInt32)
}

// row is vertex v's adjacency bit row in bitmap mode.
func (s *Scratch) row(v int32) []uint64 {
	i := int(v) * s.words
	return s.rows[i : i+s.words]
}

// peel is Algorithm 1 over scratch storage — the package's one peeler:
// edges leave in ascending support order through a bin sort. It consumes
// s.sup, and lists each peeled edge's live triangles from the bit rows in
// bitmap mode (s.words > 0), by merging adjacency lists otherwise. The
// peel ends early once the lowest live support reaches stop−2: the live
// edges then form a stop-truss and all get τ = stop, while every edge
// peeled before has its exact τ < stop. math.MaxInt32 peels to the end.
func (s *Scratch) peel(g *graph.Graph, stop int32) []int32 {
	m := g.M()
	s.tau = grow(s.tau, m)
	if m == 0 {
		return s.tau
	}
	sup := s.sup
	maxSup := int32(0)
	for _, v := range sup {
		if v > maxSup {
			maxSup = v
		}
	}
	// Bin sort edges by support: sorted is ascending by sup, pos[e] is the
	// index of e in sorted, binStart[x] is the first index of support x.
	s.binStart = grow(s.binStart, int(maxSup)+2)
	binStart := s.binStart
	clear(binStart)
	for _, v := range sup {
		binStart[v]++
	}
	start := int32(0)
	for x := int32(0); x <= maxSup; x++ {
		c := binStart[x]
		binStart[x] = start
		start += c
	}
	binStart[maxSup+1] = start
	s.sorted = grow(s.sorted, m)
	s.pos = grow(s.pos, m)
	s.cursor = grow(s.cursor, int(maxSup)+1)
	sorted, pos, cursor := s.sorted, s.pos, s.cursor
	copy(cursor, binStart[:maxSup+1])
	for e := int32(0); int(e) < m; e++ {
		x := sup[e]
		sorted[cursor[x]] = e
		pos[e] = cursor[x]
		cursor[x]++
	}

	s.removed = grow(s.removed, m)
	removed := s.removed
	clear(removed)
	tau := s.tau
	// dec moves edge e one support bin down, unless it is already at the
	// current peeling floor.
	dec := func(e, floor int32) {
		x := sup[e]
		if x <= floor {
			return
		}
		p, q := pos[e], binStart[x]
		if p != q {
			other := sorted[q]
			sorted[p], sorted[q] = other, e
			pos[e], pos[other] = q, p
		}
		binStart[x]++
		sup[e] = x - 1
	}

	k := int32(2)
	for i := 0; i < m; i++ {
		e := sorted[i]
		if sup[e] >= stop-2 {
			for _, e := range sorted[i:] {
				tau[e] = stop
			}
			break
		}
		if sup[e] > k-2 {
			k = sup[e] + 2
		}
		tau[e] = k
		removed[e] = true
		ed := g.Edge(e)
		if s.words > 0 {
			ru, rv := s.row(ed.U), s.row(ed.V)
			ru[ed.V/64] &^= 1 << (ed.V % 64)
			rv[ed.U/64] &^= 1 << (ed.U % 64)
			for i, w := range ru {
				for w &= rv[i]; w != 0; w &= w - 1 {
					x := int32(i*64 + bits.TrailingZeros64(w))
					dec(g.EdgeID(ed.U, x), k-2)
					dec(g.EdgeID(ed.V, x), k-2)
				}
			}
			continue
		}
		forEachCommonArc(g, ed.U, ed.V, func(_ int32, euw, evw int32) {
			if removed[euw] || removed[evw] {
				return
			}
			dec(euw, k-2)
			dec(evw, k-2)
		})
	}
	return tau
}

// CountComponents is the package-level CountComponents over scratch
// storage: zero allocations in steady state.
func (s *Scratch) CountComponents(g *graph.Graph, tau []int32, k int32) int {
	n := g.N()
	s.d.Init(n)
	stamp := s.nextStamp(n)
	touched, merges := 0, 0
	for id, e := range g.Edges() {
		if tau[id] < k {
			continue
		}
		if s.seen[e.U] != stamp {
			s.seen[e.U] = stamp
			touched++
		}
		if s.seen[e.V] != stamp {
			s.seen[e.V] = stamp
			touched++
		}
		if s.d.Union(e.U, e.V) {
			merges++
		}
	}
	return touched - merges
}

// Components is the package-level Components with scratch-backed
// transients, each member written as ids[v] (or v when ids is nil): only
// the returned groups (one flat member array plus the group headers) are
// allocated. Groups come out sorted by first member with ascending
// members, identical to Components; nil when no edge qualifies.
func (s *Scratch) Components(g *graph.Graph, tau []int32, k int32, ids []int32) [][]int32 {
	n := g.N()
	s.d.Init(n)
	roots := s.gr.Roots(n)
	for id, e := range g.Edges() {
		if tau[id] >= k {
			roots[e.U], roots[e.V] = 0, 0
			s.d.Union(e.U, e.V)
		}
	}
	for v, r := range roots {
		if r >= 0 {
			roots[v] = s.d.Find(int32(v))
		}
	}
	return s.gr.Groups(roots, ids)
}

// nextStamp sizes the stamped membership array for n vertices and
// returns a fresh stamp value. The stamp trick replaces clearing the
// array on every call; on (astronomically rare) wraparound the array is
// cleared for real.
func (s *Scratch) nextStamp(n int) int32 {
	if cap(s.seen) < n {
		s.seen = make([]int32, n)
	}
	s.seen = s.seen[:n]
	if s.stamp == math.MaxInt32 {
		clear(s.seen)
		s.stamp = 0
	}
	s.stamp++
	return s.stamp
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short; the contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
