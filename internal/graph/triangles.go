package graph

// Triangle listing and per-edge support counting: the substrate for truss
// decomposition (paper §3.1) and for one-shot ego-network extraction
// (paper §6.2). There is one listing algorithm. Each triangle is listed
// once, from its lowest vertex u by ID: a caller-owned marker holds N⁺(u),
// the neighbours above u with the IDs of their edges to u, and for each
// v ∈ N⁺(u) a walk of N⁺(v) finds every w that closes a triangle
// (u, v, w). Both upper runs are walked from the end of the sorted
// adjacency lists, so a listing costs Σ over edges (u,v), u < v, of
// |N⁺(v)|, and the marker is cleared again after each u. SupportsInto
// runs it with no call per triangle; ForEachTriangle hands each triangle
// to a closure.

// Triangle is one triangle: vertices U < V < W by vertex ID, plus the IDs
// of its three edges.
type Triangle struct {
	U, V, W       int32
	EUV, EUW, EVW int32
}

// SupportsInto sets sup[e] to the number of triangles through every edge
// e of g (paper §2.2). sup must hold g.M() entries; their old values are
// overwritten. mark must hold at least g.N() entries, all zero, and is
// all zero again on return: mark[w] holds the ID + 1 of edge (u,w) while
// the listing visits u.
func (g *Graph) SupportsInto(sup, mark []int32) {
	clear(sup[:g.M()])
	for u := range int32(g.N()) {
		nu, eu := g.Arcs(u)
		lo := len(nu)
		for lo > 0 && nu[lo-1] > u {
			lo--
			mark[nu[lo]] = eu[lo] + 1
		}
		for i := lo; i < len(nu); i++ {
			nv, ev := g.Arcs(nu[i])
			for j := len(nv) - 1; j >= 0 && nv[j] > nu[i]; j-- {
				if x := mark[nv[j]]; x != 0 {
					sup[eu[i]]++
					sup[ev[j]]++
					sup[x-1]++
				}
			}
		}
		for _, w := range nu[lo:] {
			mark[w] = 0
		}
	}
}

// ForEachTriangle calls fn once per triangle in g, by the same listing
// as SupportsInto over a marker of its own. Returning false from fn stops
// the enumeration early. It serves whole-graph callers; a loop over many
// small graphs should count with SupportsInto and a reused marker.
func (g *Graph) ForEachTriangle(fn func(t Triangle) bool) {
	mark := make([]int32, g.N())
	for u := range int32(g.N()) {
		nu, eu := g.Arcs(u)
		lo := len(nu)
		for lo > 0 && nu[lo-1] > u {
			lo--
			mark[nu[lo]] = eu[lo] + 1
		}
		for i := lo; i < len(nu); i++ {
			v := nu[i]
			nv, ev := g.Arcs(v)
			for j := len(nv) - 1; j >= 0 && nv[j] > v; j-- {
				if x := mark[nv[j]]; x != 0 {
					if !fn(Triangle{U: u, V: v, W: nv[j], EUV: eu[i], EUW: x - 1, EVW: ev[j]}) {
						return
					}
				}
			}
		}
		for _, w := range nu[lo:] {
			mark[w] = 0
		}
	}
}

// Supports returns sup[e] = the number of triangles containing edge e,
// indexed by edge ID (paper §2.2).
func (g *Graph) Supports() []int32 {
	sup := make([]int32, g.M())
	g.SupportsInto(sup, make([]int32, g.N()))
	return sup
}

// CountTriangles returns the total number of triangles in g: each lies on
// three edges, so it is the sum of the supports over 3.
func (g *Graph) CountTriangles() int64 {
	var t int64
	for _, s := range g.Supports() {
		t += int64(s)
	}
	return t / 3
}

// TrianglesPerVertex returns tv[v] = the number of triangles containing v.
// tv[v] equals m_v, the edge count of v's ego-network (paper Lemma 2).
// Each triangle through v lies on exactly two of v's edges, so tv[v] is
// half the sum of the supports of v's edges.
func (g *Graph) TrianglesPerVertex() []int32 {
	sup := g.Supports()
	tv := make([]int32, g.N())
	for v := range tv {
		_, ids := g.Arcs(int32(v))
		var s int64
		for _, e := range ids {
			s += int64(sup[e])
		}
		tv[v] = int32(s / 2)
	}
	return tv
}

// CommonNeighbors appends to dst every vertex adjacent to both u and v,
// using a merge over the two sorted adjacency lists, and returns dst.
func (g *Graph) CommonNeighbors(dst []int32, u, v int32) []int32 {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
