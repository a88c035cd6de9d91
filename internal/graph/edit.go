package graph

import (
	"cmp"
	"slices"
)

// Edit returns the graph g with the edges in ins added and those in del
// removed, laid out exactly as FromEdges would lay out the edited edge
// list: same vertex count, same canonical edge IDs, same CSR arrays. Both
// lists must be canonical (U < V), strictly sorted by CompareEdges and
// disjoint; every edge of del must be in g and none of ins. Edit panics
// when an edge of ins is present or one of del is absent; the rest of the
// contract is the caller's.
//
// Edit splices instead of rebuilding, so it copies g's untouched data in
// bulk. It merges the edge lists, recording each old edge's new ID; it
// shifts the arc offsets by the per-vertex degree deltas; it copies the
// adjacency runs of untouched vertices whole, rewriting their edge IDs
// through the recorded table; and it merges the edits into the adjacency
// of the touched vertices only. g is left as it was.
func (g *Graph) Edit(ins, del []Edge) *Graph {
	n, m := g.N(), g.M()
	edges := make([]Edge, 0, m+len(ins)-len(del))
	// newID[id] is the edited ID of old edge id, or -1 once it is deleted.
	newID := make([]int32, m)
	// One arc per endpoint of every edit, carrying the inserted edge's new
	// ID or -1 for a deletion: sorted by endpoint, they list each touched
	// vertex's edits in neighbour order.
	arcs := make([]editArc, 0, 2*(len(ins)+len(del)))

	run := 0 // the first old edge not yet carried over
	carry := func(to int) {
		shift := int32(len(edges) - run)
		edges = append(edges, g.edges[run:to]...)
		for id := run; id < to; id++ {
			newID[id] = int32(id) + shift
		}
		run = to
	}
	for len(ins) > 0 || len(del) > 0 {
		if len(del) == 0 || (len(ins) > 0 && CompareEdges(ins[0], del[0]) < 0) {
			e := ins[0]
			ins = ins[1:]
			at, found := slices.BinarySearchFunc(g.edges[run:], e, CompareEdges)
			if found {
				panic("graph: Edit inserts an edge already present")
			}
			carry(run + at)
			id := int32(len(edges))
			edges = append(edges, e)
			arcs = append(arcs, editArc{e.U, e.V, id}, editArc{e.V, e.U, id})
			continue
		}
		e := del[0]
		del = del[1:]
		at, found := slices.BinarySearchFunc(g.edges[run:], e, CompareEdges)
		if !found {
			panic("graph: Edit deletes an edge not present")
		}
		carry(run + at)
		newID[run] = -1
		run++
		arcs = append(arcs, editArc{e.U, e.V, -1}, editArc{e.V, e.U, -1})
	}
	carry(m)
	slices.SortFunc(arcs, func(a, b editArc) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})

	// Offsets: every vertex after a touched one shifts by the running
	// degree delta.
	off := make([]int64, n+1)
	var delta int64
	lo := 0
	for a := 0; a < len(arcs); {
		v := int(arcs[a].from)
		for x := lo; x <= v; x++ {
			off[x] = g.off[x] + delta
		}
		for ; a < len(arcs) && int(arcs[a].from) == v; a++ {
			if arcs[a].id >= 0 {
				delta++
			} else {
				delta--
			}
		}
		lo = v + 1
	}
	for x := lo; x <= n; x++ {
		off[x] = g.off[x] + delta
	}

	// Adjacency: untouched runs are copied, touched vertices merged.
	adj := make([]int32, 2*len(edges))
	eid := make([]int32, 2*len(edges))
	copyRun := func(lo, hi int) {
		from, to := g.off[lo], g.off[hi]
		at := off[lo]
		copy(adj[at:], g.adj[from:to])
		out := eid[at : at+to-from]
		for i, id := range g.eid[from:to] {
			out[i] = newID[id]
		}
	}
	lo = 0
	for a := 0; a < len(arcs); {
		v := int(arcs[a].from)
		copyRun(lo, v)
		nbr, ids := g.Arcs(int32(v))
		at, i := off[v], 0
		// keepUntil carries v's surviving old arcs to neighbours below w.
		keepUntil := func(w int32) {
			for ; i < len(nbr) && nbr[i] < w; i++ {
				if id := newID[ids[i]]; id >= 0 {
					adj[at], eid[at] = nbr[i], id
					at++
				}
			}
		}
		for ; a < len(arcs) && int(arcs[a].from) == v; a++ {
			if x := arcs[a]; x.id >= 0 {
				keepUntil(x.to)
				adj[at], eid[at] = x.to, x.id
				at++
			}
		}
		keepUntil(int32(n))
		lo = v + 1
	}
	copyRun(lo, n)
	return &Graph{off: off, adj: adj, eid: eid, edges: edges}
}

// editArc is one directed half of an edited edge: id is the inserted
// edge's ID in the edited graph, or -1 for a deletion.
type editArc struct {
	from, to, id int32
}
