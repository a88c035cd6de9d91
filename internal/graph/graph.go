// Package graph provides the undirected simple-graph substrate the paper's
// algorithms run on (paper §2): a CSR-style adjacency structure with sorted
// neighbor lists, stable edge identifiers, triangle listing, connected
// components, induced subgraphs, and edge-list I/O.
//
// Triangles are listed by one algorithm (triangles.go), oriented by
// vertex ID, with two entry points: SupportsInto counts per-edge supports
// over a caller-owned marker and makes no call per triangle, so the
// ego-network scans run it on every ego-network; ForEachTriangle hands
// each triangle to a closure for the whole-graph passes.
//
// Vertices are dense int32 identifiers 0..N()-1. Every undirected edge
// {u,v} has a single edge ID in 0..M()-1, assigned in canonical (U,V)
// order; both directed arcs carry that ID, which lets per-edge algorithms
// (support counting, truss peeling) index flat arrays. A graph derived by
// Edit lays its edge IDs out on the first per-edge access rather than at
// the edit: the IDs are the same either way.
package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"sync/atomic"
)

// Edge is an undirected edge with canonical orientation U < V.
type Edge struct {
	U, V int32
}

// CompareEdges orders edges by (U, V) — the edge-ID order of every
// Graph — returning -1, 0 or +1, for slices.SortFunc and sorted merges.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Graph is an immutable undirected simple graph in CSR form.
// Build one with a Builder, FromEdges, or the readers in this package;
// Edit derives an edited copy.
// All four CSR arrays use fixed-width element types, so the layout is
// identical on 32- and 64-bit builds.
//
// A built graph holds all four arrays as plain fields. An edited graph
// holds only off and adj: the first per-edge accessor (Arcs, Edge, Edges,
// CSR, EdgeID) numbers its edges from the adjacency in one pass and
// memoizes the result in ids. The IDs are the canonical (U,V) ones a
// rebuild assigns, so laying them out late changes no value. N, M,
// Degree, Neighbors, HasEdge and Fingerprint never lay them out.
type Graph struct {
	off   []int64 // len N()+1; arc range of vertex v is adj[off[v]:off[v+1]]
	adj   []int32 // len 2*M(); sorted neighbors per vertex
	eid   []int32 // len 2*M(); edge ID parallel to adj (nil when edited)
	edges []Edge  // len M(); edges[id] is the canonical endpoint pair (nil when edited)

	// edited marks a graph from Edit, whose eid and edges live in ids.
	// Built graphs keep them in the plain fields above, so the per-edge
	// accessors on the scan's ego-networks pay no atomic load.
	edited bool
	// ids memoizes an edited graph's edge-ID layout. Racing first
	// accesses may both lay it out; the first stored wins and every
	// caller reads that one, and the arrays are identical anyway.
	ids atomic.Pointer[edgeIDs]

	// fp memoizes Fingerprint. An atomic pointer rather than a sync.Once
	// so Builder.BuildInto can reset it when a Scratch-owned Graph is
	// relaid over recycled slabs; racing recomputations store identical
	// digests, so last-write-wins is safe.
	fp atomic.Pointer[[32]byte]
}

// edgeIDs is an edited graph's lazily laid-out per-edge data.
type edgeIDs struct {
	eid   []int32
	edges []Edge
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// Arcs returns the sorted neighbor list of v together with the parallel
// slice of edge IDs. Both slices alias internal storage. On an edited
// graph the first per-edge access lays the edge IDs out.
func (g *Graph) Arcs(v int32) (neighbors, edgeIDs []int32) {
	eid := g.eid
	if g.edited {
		eid = g.laidOut().eid
	}
	return g.adj[g.off[v]:g.off[v+1]], eid[g.off[v]:g.off[v+1]]
}

// Edge returns the canonical endpoints of edge id.
func (g *Graph) Edge(id int32) Edge {
	if g.edited {
		return g.laidOut().edges[id]
	}
	return g.edges[id]
}

// Edges returns the full edge list indexed by edge ID. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Edges() []Edge {
	if g.edited {
		return g.laidOut().edges
	}
	return g.edges
}

// laidOut returns an edited graph's edge-ID layout, making it on the
// first call.
func (g *Graph) laidOut() *edgeIDs {
	if p := g.ids.Load(); p != nil {
		return p
	}
	p := layoutIDs(g.off, g.adj)
	if !g.ids.CompareAndSwap(nil, p) {
		p = g.ids.Load()
	}
	return p
}

// layoutIDs numbers the edges of a sorted adjacency in canonical (U,V)
// order, the order FromEdges assigns, in one pass over the arcs. When
// vertex u comes up, its lower arcs are numbered already — each by its
// lower endpoint, which came up earlier and in ascending order, so they
// filled u's run from the front — and lower[u] sits at u's first upper
// arc; u then numbers its upper arcs, each in both directions.
func layoutIDs(off []int64, adj []int32) *edgeIDs {
	n := len(off) - 1
	edges := make([]Edge, 0, len(adj)/2)
	eid := make([]int32, len(adj))
	lower := slices.Clone(off[:n]) // lower[v]: v's next unnumbered lower arc
	for u := range n {
		for at := lower[u]; at < off[u+1]; at++ {
			v := adj[at]
			id := int32(len(edges))
			edges = append(edges, Edge{int32(u), v})
			eid[at] = id
			eid[lower[v]] = id
			lower[v]++
		}
	}
	return &edgeIDs{eid: eid, edges: edges}
}

// Fingerprint returns the SHA-256 identity of the graph: a domain string,
// the vertex and edge counts, and every canonical edge in ID order, all
// little-endian. Two graphs with the same structure hash identically on any
// platform. The digest is computed once per Graph and memoized — the graph
// is immutable — so repeated callers (index persistence, store validation)
// pay the hash exactly once per process. It reads the edges off each
// vertex's upper neighbours, so it never lays out an edited graph's IDs.
func (g *Graph) Fingerprint() [32]byte {
	if p := g.fp.Load(); p != nil {
		return *p
	}
	h := sha256.New()
	h.Write([]byte("trussdiv-graph-v1"))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(g.N()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(g.M()))
	h.Write(hdr[:])
	// Encode edges by hand in bounded chunks: reflection-based encoding
	// of the whole edge list would dominate the hash itself.
	const chunk = 1 << 13
	buf := make([]byte, 0, 8*chunk)
	for u := range int32(g.N()) {
		nbr := g.Neighbors(u)
		for _, v := range nbr[sort.Search(len(nbr), func(i int) bool { return nbr[i] > u }):] {
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	h.Write(buf)
	var fp [32]byte
	h.Sum(fp[:0])
	g.fp.Store(&fp)
	return fp
}

// CSR returns the four raw CSR arrays: the arc offset table (len N()+1),
// the sorted neighbor list and parallel edge-ID list (len 2*M() each), and
// the canonical edge list (len M()). All returned slices alias internal
// storage and must not be modified. On an edited graph the first
// per-edge access lays the edge IDs out.
func (g *Graph) CSR() (off []int64, adj, eid []int32, edges []Edge) {
	if g.edited {
		p := g.laidOut()
		return g.off, g.adj, p.eid, p.edges
	}
	return g.off, g.adj, g.eid, g.edges
}

// HasEdge reports whether the undirected edge {u,v} exists. It
// binary-searches the shorter adjacency list, so it costs
// O(log min(d(u), d(v))), and reads no edge IDs.
func (g *Graph) HasEdge(u, v int32) bool { return g.arcIndex(u, v) >= 0 }

// EdgeID returns the ID of edge {u,v}, or -1 when absent, at HasEdge's
// cost.
func (g *Graph) EdgeID(u, v int32) int32 {
	at := g.arcIndex(u, v)
	if at < 0 {
		return -1
	}
	if g.edited {
		return g.laidOut().eid[at]
	}
	return g.eid[at]
}

// arcIndex returns the position in adj of the arc between u and v,
// searched in the shorter of the two adjacency lists, or -1 when the
// edge is absent.
func (g *Graph) arcIndex(u, v int32) int64 {
	if u == v {
		return -1
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbr := g.Neighbors(u)
	i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= v })
	if i < len(nbr) && nbr[i] == v {
		return g.off[u] + int64(i)
	}
	return -1
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(int32(v)); d > best {
			best = d
		}
	}
	return best
}
