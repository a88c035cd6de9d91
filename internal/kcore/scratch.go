package kcore

import (
	"math"

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

	d         dsu.DSU
	rootGroup []int32
	rootStamp []int32
	groupLen  []int32
	stamp     int32
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
// transients: only the returned groups (one flat member array plus the
// group headers) are allocated. Groups come out sorted by first member
// with ascending members, identical to Components.
func (s *Scratch) Components(g *graph.Graph, core []int32, k int32) [][]int32 {
	n := g.N()
	s.d.Init(n)
	members := 0
	for v := 0; v < n; v++ {
		if core[v] >= k {
			members++
		}
	}
	for _, e := range g.Edges() {
		if core[e.U] >= k && core[e.V] >= k {
			s.d.Union(e.U, e.V)
		}
	}
	stamp := s.nextStamp(n)
	s.rootGroup = growI32(s.rootGroup, n)
	s.groupLen = s.groupLen[:0]
	for v := int32(0); int(v) < n; v++ {
		if core[v] < k {
			continue
		}
		r := s.d.Find(v)
		if s.rootStamp[r] != stamp {
			s.rootStamp[r] = stamp
			s.rootGroup[r] = int32(len(s.groupLen))
			s.groupLen = append(s.groupLen, 0)
		}
		s.groupLen[s.rootGroup[r]]++
	}
	flat := make([]int32, 0, members)
	out := make([][]int32, 0, len(s.groupLen))
	for _, l := range s.groupLen {
		start := len(flat)
		out = append(out, flat[start:start:start+int(l)])
		flat = flat[:start+int(l)]
	}
	for v := int32(0); int(v) < n; v++ {
		if core[v] < k {
			continue
		}
		gi := s.rootGroup[s.d.Find(v)]
		out[gi] = append(out[gi], v)
	}
	return out
}

// nextStamp sizes the stamped root-mark array for n vertices and returns
// a fresh stamp; on (astronomically rare) wraparound the marks are
// cleared for real.
func (s *Scratch) nextStamp(n int) int32 {
	if cap(s.rootStamp) < n {
		s.rootStamp = make([]int32, n)
	}
	s.rootStamp = s.rootStamp[:n]
	if s.stamp == math.MaxInt32 {
		for i := range s.rootStamp {
			s.rootStamp[i] = 0
		}
		s.stamp = 0
	}
	s.stamp++
	return s.stamp
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
