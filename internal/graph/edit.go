package graph

import (
	"cmp"
	"slices"
)

// Edit returns the graph g with the edges in ins added and those in del
// removed, with exactly the structure FromEdges would build from the
// edited edge list: same vertex count, same offsets and adjacency, same
// canonical edge IDs. Both lists must be canonical (U < V), strictly
// sorted by CompareEdges and disjoint; every edge of del must be in g and
// none of ins. Edit panics when an edge of ins is present or one of del
// is absent; the rest of the contract is the caller's.
//
// Edit splices instead of rebuilding, and it splices the adjacency only.
// It shifts the arc offsets by the per-vertex degree deltas, copies the
// adjacency runs of untouched vertices whole, and merges the edits into
// the adjacency of the touched vertices. The edge IDs and the edge list
// are left unset: the first per-edge accessor of the result lays them out
// from the adjacency (see Graph), so a caller that only walks neighbours
// never pays for them. Neither the edit nor its checks read g's edge IDs,
// so editing an edited graph does not lay out g's either. g is left as
// it was.
func (g *Graph) Edit(ins, del []Edge) *Graph {
	n := g.N()
	// One arc per endpoint of every edit: sorted by endpoint, they list
	// each touched vertex's edits in neighbour order.
	arcs := make([]editArc, 0, 2*(len(ins)+len(del)))
	for _, e := range ins {
		if g.HasEdge(e.U, e.V) {
			panic("graph: Edit inserts an edge already present")
		}
		arcs = append(arcs, editArc{e.U, e.V, true}, editArc{e.V, e.U, true})
	}
	for _, e := range del {
		if !g.HasEdge(e.U, e.V) {
			panic("graph: Edit deletes an edge not present")
		}
		arcs = append(arcs, editArc{e.U, e.V, false}, editArc{e.V, e.U, false})
	}
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
			if arcs[a].insert {
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
	adj := make([]int32, off[n])
	copyRun := func(lo, hi int) {
		copy(adj[off[lo]:], g.adj[g.off[lo]:g.off[hi]])
	}
	lo = 0
	for a := 0; a < len(arcs); {
		v := int(arcs[a].from)
		copyRun(lo, v)
		nbr := g.Neighbors(int32(v))
		at, i := off[v], 0
		for ; a < len(arcs) && int(arcs[a].from) == v; a++ {
			x := arcs[a]
			// Carry v's old neighbours below x.to, then insert x.to or
			// step over it.
			j, _ := slices.BinarySearch(nbr[i:], x.to)
			at += int64(copy(adj[at:], nbr[i:i+j]))
			i += j
			if x.insert {
				adj[at] = x.to
				at++
			} else {
				i++
			}
		}
		copy(adj[at:], nbr[i:])
		lo = v + 1
	}
	copyRun(lo, n)
	return &Graph{off: off, adj: adj, edited: true}
}

// editArc is one directed half of an edited edge, inserted or deleted.
type editArc struct {
	from, to int32
	insert   bool
}
