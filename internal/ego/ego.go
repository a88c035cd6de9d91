// Package ego extracts ego-networks (paper Def. 1): for a vertex v, the
// subgraph of G induced by N(v), excluding v itself.
//
// Two strategies are provided, mirroring the paper's two pipelines:
//
//   - ExtractOne performs local triangle listing around a single vertex
//     (the path used by the online algorithms and TSD-index construction,
//     §3.2/§5.1). Each triangle through v is touched while building one
//     ego-network. A position marker over global IDs tests membership in
//     N(v) in O(1), so one extraction costs Σ|N⁺(u)| over u ∈ N(v), where
//     N⁺(u) is the part of N(u) above u, walked from the end of u's
//     sorted list down to u. The marker is an O(n) int32 array per
//     Scratch, grown once to the largest graph it serves: reuse one
//     Scratch per worker via ExtractOneInto, and never call the one-shot
//     ExtractOne in a loop.
//   - ExtractAll performs one-shot global triangle listing
//     (graph.ForEachTriangle, the same oriented listing by vertex ID) and
//     distributes each triangle to the three ego-networks it belongs to
//     (the GCT pipeline, §6.2). Each triangle is enumerated once instead
//     of being rediscovered by every endpoint, which the paper credits
//     for roughly halving extraction work.
package ego

import (
	"sort"

	"trussdiv/internal/graph"
)

// Network is the ego-network of Center: a local graph over the neighbors
// of Center, relabeled 0..len(Verts)-1 in ascending global-ID order.
type Network struct {
	Center int32
	Verts  []int32      // local ID -> global ID (sorted); aliases g's storage
	G      *graph.Graph // the induced local graph
}

// Global maps a local vertex ID back to the global ID.
func (n *Network) Global(local int32) int32 { return n.Verts[local] }

// Local maps a global vertex ID to the local ID, or -1 if the vertex is
// not a neighbor of the center.
func (n *Network) Local(global int32) int32 {
	i := sort.Search(len(n.Verts), func(i int) bool { return n.Verts[i] >= global })
	if i < len(n.Verts) && n.Verts[i] == global {
		return int32(i)
	}
	return -1
}

// Scratch owns the reusable storage one worker needs to extract
// ego-networks without allocating in steady state: the builder's edge
// slab, the local graph's CSR slabs, the Network header itself, and the
// O(n) position marker of ExtractOneInto (all zero between calls) with
// its per-neighbor hit buffer. The zero value is ready to use. A Scratch
// is not safe for concurrent use — each worker owns exactly one — and
// the Network returned by ExtractOneInto or All.NetworkInto (plus
// everything reachable from it) is a view over the Scratch, valid only
// until the next extraction into the same Scratch. See DESIGN.md
// "Scratch ownership contract".
type Scratch struct {
	b    graph.Builder
	csr  graph.Scratch
	net  Network
	pos  []int32 // global ID -> local ID + 1 over N(center); all zero between calls
	hits []int32 // local IDs one neighbor's upper run hit, in descending order
}

// ExtractOneInto is ExtractOne into recycled storage: the returned
// Network aliases s and is invalidated by the next extraction into s.
//
// It lists the triangles through v with a position marker: pos[w] holds
// w's local ID + 1 while w ∈ N(v), so each neighbor u tests the part of
// N(u) above u in O(1) per entry, walking its sorted list from the end
// and stopping at u. That costs Σ|N⁺(u)| over u ∈ N(v), against
// Σ(d(u) + d(v)) for a merge, whose d(v)² term dominates at hubs. The
// walk meets u's hits in descending order, so they are reversed before
// they reach the builder, which then gets every edge in (lu, lw) order
// and skips its sort. The marker is an int32 array over global IDs,
// grown to g.N() on the first extraction that needs it and reused
// afterwards; only the entries of N(v) are set and cleared again, so it
// is all zero between calls and serves any graph, smaller ones included.
func ExtractOneInto(s *Scratch, g *graph.Graph, v int32) *Network {
	verts := g.Neighbors(v)
	s.b.Reset(len(verts))
	if len(verts) > 1 { // fewer than two neighbors span no ego edge
		if len(s.pos) < g.N() {
			s.pos = make([]int32, g.N())
		}
		pos := s.pos
		for j, w := range verts {
			pos[w] = int32(j) + 1
		}
		for lu, u := range verts {
			nu := g.Neighbors(u)
			hits := s.hits[:0]
			for i := len(nu) - 1; i >= 0 && nu[i] > u; i-- { // N⁺(u): each ego edge once
				if p := pos[nu[i]]; p != 0 {
					hits = append(hits, p-1)
				}
			}
			for i := len(hits) - 1; i >= 0; i-- {
				s.b.AddEdge(int32(lu), hits[i])
			}
			s.hits = hits
		}
		for _, w := range verts {
			pos[w] = 0
		}
	}
	s.net.Center = v
	s.net.Verts = verts
	s.net.G = s.b.BuildInto(&s.csr)
	return &s.net
}

// ExtractOne builds the ego-network of v by local triangle listing: for
// every neighbor u of v, the edge (u,w) is added for each w in
// N(u) ∩ N(v) with w > u. It extracts into a private one-shot Scratch,
// so the result is never invalidated, but every call allocates and zeroes
// that Scratch's O(n) marker (see ExtractOneInto): it is for one-off
// callers only. Loops over many vertices must reuse one Scratch via
// ExtractOneInto instead.
func ExtractOne(g *graph.Graph, v int32) *Network {
	return ExtractOneInto(new(Scratch), g, v)
}

// All holds the materialized ego-network edge lists of every vertex,
// produced by one global triangle-listing pass.
type All struct {
	g     *graph.Graph
	off   []int64      // per-vertex slice boundaries into edges
	edges []graph.Edge // global endpoint pairs of ego edges, grouped by center
}

// ExtractAll lists each triangle of g exactly once and assigns each of its
// three edges to the opposite endpoint's ego-network (paper Alg. 7 lines
// 1-4). Memory is Θ(3T) edge records, allocated exactly via a counting
// pre-pass.
func ExtractAll(g *graph.Graph) *All {
	n := g.N()
	counts := g.TrianglesPerVertex() // m_v per vertex
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int64(counts[v])
	}
	edges := make([]graph.Edge, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	// U < V < W, so each pair below is already in canonical order.
	put := func(center int32, a, b int32) {
		edges[cursor[center]] = graph.Edge{U: a, V: b}
		cursor[center]++
	}
	g.ForEachTriangle(func(t graph.Triangle) bool {
		put(t.U, t.V, t.W)
		put(t.V, t.U, t.W)
		put(t.W, t.U, t.V)
		return true
	})
	return &All{g: g, off: off, edges: edges}
}

// EdgeCount returns m_v, the number of edges of v's ego-network (equal to
// the number of triangles through v).
func (a *All) EdgeCount(v int32) int { return int(a.off[v+1] - a.off[v]) }

// Network materializes the ego-network of v from the precollected edges.
// Like ExtractOne it uses a private one-shot Scratch, so the result is
// never invalidated.
func (a *All) Network(v int32) *Network {
	return a.NetworkInto(new(Scratch), v)
}

// NetworkInto is Network into recycled storage: the returned Network
// aliases s and is invalidated by the next extraction into s.
func (a *All) NetworkInto(s *Scratch, v int32) *Network {
	verts := a.g.Neighbors(v)
	s.b.Reset(len(verts))
	lookup := func(global int32) int32 {
		i := sort.Search(len(verts), func(i int) bool { return verts[i] >= global })
		return int32(i) // caller guarantees membership
	}
	for _, e := range a.edges[a.off[v]:a.off[v+1]] {
		s.b.AddEdge(lookup(e.U), lookup(e.V))
	}
	s.net.Center = v
	s.net.Verts = verts
	s.net.G = s.b.BuildInto(&s.csr)
	return &s.net
}
