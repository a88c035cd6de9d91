package graph

import "sort"

// InducedSubgraph returns the subgraph of g induced by the given vertex set
// (paper Def. 1 uses this to form ego-networks). The result relabels
// vertices to 0..len(verts)-1 following the sorted order of verts;
// local2global maps the new IDs back to g's IDs. Duplicate input vertices
// are collapsed.
func (g *Graph) InducedSubgraph(verts []int32) (sub *Graph, local2global []int32) {
	vs := make([]int32, len(verts))
	copy(vs, verts)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	vs = dedupInt32(vs)

	b := NewBuilder(len(vs))
	for local, v := range vs {
		for _, w := range g.Neighbors(v) {
			if w <= v { // each edge once, from its lower endpoint
				continue
			}
			if lw := indexOf(vs, w); lw >= 0 {
				b.AddEdge(int32(local), lw)
			}
		}
	}
	return b.Build(), vs
}

// FilterEdges returns the subgraph of g keeping only edges for which
// keep(edgeID) is true. Vertex IDs are preserved (no relabeling), so
// vertices may become isolated.
func (g *Graph) FilterEdges(keep func(id int32) bool) *Graph {
	kept := make([]Edge, 0, g.M())
	for id, e := range g.Edges() {
		if keep(int32(id)) {
			kept = append(kept, e)
		}
	}
	return fromCanonicalEdges(g.N(), kept)
}

func dedupInt32(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i > 0 && v == s[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// indexOf binary-searches a sorted slice and returns the index of v or -1.
func indexOf(sorted []int32, v int32) int32 {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	if i < len(sorted) && sorted[i] == v {
		return int32(i)
	}
	return -1
}
