package kcore

import (
	"trussdiv/internal/dsu"
	"trussdiv/internal/graph"
)

// Scratch owns the reusable peeling and counting state one worker needs
// to core-decompose and score ego-network-sized graphs without
// allocating in steady state. The zero value is ready to use. A Scratch
// is not safe for concurrent use — each worker owns exactly one — and
// the slice returned by DecomposeInto is a view over the Scratch, valid
// only until its next use. See DESIGN.md "Scratch ownership contract".
type Scratch struct {
	core     []int32
	deg      []int32
	binStart []int32
	sorted   []int32
	pos      []int32
	cursor   []int32

	d  dsu.DSU
	gr dsu.Grouper
}

// DecomposeInto computes the core number of every vertex of g by the
// bin-sort peel — the package's one peeler, which Decompose also runs —
// over s's recycled storage. The returned core numbers are owned by s
// and valid only until the next DecomposeInto.
func (s *Scratch) DecomposeInto(g *graph.Graph) []int32 {
	n := g.N()
	s.core = growI32(s.core, n)
	if n == 0 {
		return s.core
	}
	s.deg = growI32(s.deg, n)
	core, deg := s.core, s.deg
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bin sort vertices by degree.
	s.binStart = growI32(s.binStart, int(maxDeg)+2)
	binStart := s.binStart
	for i := range binStart {
		binStart[i] = 0
	}
	for _, d := range deg {
		binStart[d]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		c := binStart[d]
		binStart[d] = start
		start += c
	}
	binStart[maxDeg+1] = start
	s.sorted = growI32(s.sorted, n)
	s.pos = growI32(s.pos, n)
	s.cursor = growI32(s.cursor, int(maxDeg)+1)
	sorted, pos, cursor := s.sorted, s.pos, s.cursor
	copy(cursor, binStart[:maxDeg+1])
	for v := int32(0); int(v) < n; v++ {
		d := deg[v]
		sorted[cursor[d]] = v
		pos[v] = cursor[d]
		cursor[d]++
	}
	for i := 0; i < n; i++ {
		v := sorted[i]
		core[v] = deg[v]
		for _, w := range g.Neighbors(v) {
			if deg[w] <= deg[v] {
				continue // already peeled or at the current level
			}
			d := deg[w]
			p, q := pos[w], binStart[d]
			if p != q {
				other := sorted[q]
				sorted[p], sorted[q] = other, w
				pos[w], pos[other] = q, p
			}
			binStart[d]++
			deg[w] = d - 1
		}
	}
	return core
}

// CountComponents is the package-level CountComponents over scratch
// storage: zero allocations in steady state.
func (s *Scratch) CountComponents(g *graph.Graph, core []int32, k int32) int {
	n := g.N()
	s.d.Init(n)
	count := 0
	for v := 0; v < n; v++ {
		if core[v] >= k {
			count++
		}
	}
	for _, e := range g.Edges() {
		if core[e.U] >= k && core[e.V] >= k && s.d.Union(e.U, e.V) {
			count--
		}
	}
	return count
}

// Components is the package-level Components with scratch-backed
// transients, each member written as ids[v] (or v when ids is nil): only
// the returned groups (one flat member array plus the group headers) are
// allocated. Groups come out sorted by first member with ascending
// members, identical to Components; nil when no vertex qualifies.
func (s *Scratch) Components(g *graph.Graph, core []int32, k int32, ids []int32) [][]int32 {
	n := g.N()
	s.d.Init(n)
	for _, e := range g.Edges() {
		if core[e.U] >= k && core[e.V] >= k {
			s.d.Union(e.U, e.V)
		}
	}
	roots := s.gr.Roots(n)
	for v := range roots {
		if core[v] >= k {
			roots[v] = s.d.Find(int32(v))
		}
	}
	return s.gr.Groups(roots, ids)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
