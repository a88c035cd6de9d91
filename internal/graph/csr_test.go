package graph

import "testing"

func csrTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(0)
	for _, e := range [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{3, 4}, {4, 5}, {4, 6}, {5, 6}, {2, 6},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestCSRFixedWidth pins the CSR element types: the offset array is
// []int64 — not platform-width int — so the layout is identical on 32- and
// 64-bit hosts. The assignments below stop compiling if a field drifts
// back to a platform-width type.
func TestCSRFixedWidth(t *testing.T) {
	g := csrTestGraph(t)
	off, adj, eid, edges := g.CSR()
	var _ []int64 = off
	var _ []int32 = adj
	var _ []int32 = eid
	var _ []Edge = edges
	if len(off) != g.N()+1 {
		t.Fatalf("len(off) = %d, want n+1 = %d", len(off), g.N()+1)
	}
	if off[0] != 0 || off[g.N()] != int64(2*g.M()) {
		t.Fatalf("off bounds = [%d, %d], want [0, %d]", off[0], off[g.N()], 2*g.M())
	}
}
