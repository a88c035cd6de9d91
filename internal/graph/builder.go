package graph

import (
	"fmt"
	"math"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. Self-loops are
// rejected and duplicate edges (in either orientation) are collapsed, so the
// result is always a simple undirected graph.
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a Builder for a graph with at least n vertices.
// Vertices are implicit: AddEdge grows the vertex count as needed.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: int32(n)}
}

// Reset discards the accumulated edges and re-targets the builder at a
// graph with at least n vertices, keeping the edge slab for reuse. The
// zero Builder is valid, so Reset also initializes one for scratch use.
func (b *Builder) Reset(n int) {
	if n < 0 {
		n = 0
	}
	b.n = int32(n)
	b.edges = b.edges[:0]
}

// AddEdge records the undirected edge {u,v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int32) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build finalizes the graph: deduplicates edges, assigns edge IDs in sorted
// (U,V) order, and lays out the CSR arrays.
func (b *Builder) Build() *Graph {
	b.canonicalize()
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	return fromCanonicalEdges(int(b.n), edges)
}

// canonicalize sorts b.edges by (U,V) and drops duplicates in place. The
// common producers (ego extraction, canonical readers) append edges
// already strictly ordered, so a linear pre-check skips the sort.
func (b *Builder) canonicalize() {
	if edgesCanonical(b.edges) {
		return
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	b.edges = dedup
}

// edgesCanonical reports whether edges are strictly (U,V)-sorted, i.e.
// already deduplicated and in ID order.
func edgesCanonical(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		p, e := edges[i-1], edges[i]
		if p.U > e.U || (p.U == e.U && p.V >= e.V) {
			return false
		}
	}
	return true
}

// Scratch owns the recycled slabs BuildInto lays a Graph out into. The
// zero value is ready to use. A Scratch must not be copied after first
// use, and the Graph returned by BuildInto aliases it: both are valid
// only until the next BuildInto on the same Scratch.
type Scratch struct {
	off    []int64
	cursor []int64
	adj    []int32
	eid    []int32
	edges  []Edge
	g      Graph
}

// BuildInto finalizes the graph like Build but into s's recycled slabs
// instead of fresh allocations, so a steady-state caller (per-vertex ego
// extraction) allocates nothing once the slabs have grown to the working
// size. The returned *Graph — and every slice it hands out (Neighbors,
// Arcs, Edges, CSR) — is a view over s, invalidated by the next
// BuildInto on s. Callers that need the graph to escape use Build.
func (b *Builder) BuildInto(s *Scratch) *Graph {
	b.canonicalize()
	n := int(b.n)
	s.edges = append(s.edges[:0], b.edges...)
	m := len(s.edges)
	s.off = growInt64(s.off, n+1)
	s.cursor = growInt64(s.cursor, n)
	s.adj = growInt32(s.adj, 2*m)
	s.eid = growInt32(s.eid, 2*m)
	layoutCSR(n, s.edges, s.off, s.adj, s.eid, s.cursor)
	s.g.off = s.off
	s.g.adj = s.adj
	s.g.eid = s.eid
	s.g.edges = s.edges
	s.g.fp.Store(nil) // the previous occupant's digest no longer applies
	return &s.g
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// FromEdges builds a graph with n vertices from the given edge list.
// Edges may appear in any orientation and may contain duplicates or
// self-loops; the result is a simple graph. n must fit a vertex ID
// (0 ≤ n ≤ math.MaxInt32) and endpoints must be < n.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0,%d]", n, math.MaxInt32)
	}
	b := NewBuilder(n)
	for _, e := range edges {
		if e.U >= int32(n) || e.V >= int32(n) || e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		b.AddEdge(e.U, e.V)
	}
	return b.Build(), nil
}

// fromCanonicalEdges lays out the CSR arrays from a deduplicated edge list
// already sorted by (U,V) with U < V. Edge i gets ID i.
func fromCanonicalEdges(n int, edges []Edge) *Graph {
	off := make([]int64, n+1)
	adj := make([]int32, 2*len(edges))
	eid := make([]int32, 2*len(edges))
	cursor := make([]int64, n)
	layoutCSR(n, edges, off, adj, eid, cursor)
	return &Graph{off: off, adj: adj, eid: eid, edges: edges}
}

// layoutCSR fills the CSR arrays from a canonical edge list. Each
// vertex's arc range is written as two ascending runs by two passes over
// the ID-ordered edges: the first pass lays down lower neighbors (for a
// fixed V the U values arrive ascending because the list is U-major),
// the second upper neighbors (for a fixed U the V values are ascending
// within U's contiguous block). Every lower neighbor precedes every
// upper one, so adjacency comes out fully sorted with no per-vertex
// sort and no allocation. cursor is caller-owned scratch of length n.
func layoutCSR(n int, edges []Edge, off []int64, adj, eid []int32, cursor []int64) {
	for i := 0; i <= n; i++ {
		off[i] = 0
	}
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	copy(cursor, off[:n])
	for id, e := range edges {
		adj[cursor[e.V]] = e.U
		eid[cursor[e.V]] = int32(id)
		cursor[e.V]++
	}
	// After the first pass cursor[v] sits exactly past v's lower run,
	// i.e. at the start of its upper run.
	for id, e := range edges {
		adj[cursor[e.U]] = e.V
		eid[cursor[e.U]] = int32(id)
		cursor[e.U]++
	}
}
