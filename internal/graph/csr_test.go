package graph

import (
	"reflect"
	"testing"
)

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

// TestCSRFixedWidth pins the serialization contract the index store
// depends on: the CSR offset array is []int64 — not platform-width int —
// so a file written on a 32-bit host is byte-identical to one written on
// a 64-bit host. The assignments below stop compiling if a field drifts
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

// TestFromCSRRoundTrip rebuilds a graph from its own CSR arrays (the way
// a mmap reader materializes the store's graph section) and checks the
// adopted graph behaves identically.
func TestFromCSRRoundTrip(t *testing.T) {
	g := csrTestGraph(t)
	back, err := FromCSR(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("size changed: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	if !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Fatal("edge list changed across the CSR round trip")
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if back.Degree(v) != g.Degree(v) {
			t.Fatalf("degree(%d) = %d, want %d", v, back.Degree(v), g.Degree(v))
		}
		if !reflect.DeepEqual(back.Neighbors(v), g.Neighbors(v)) {
			t.Fatalf("neighbors(%d) changed across the round trip", v)
		}
	}
}

// TestFromCSRValidates rejects structurally impossible CSR arrays instead
// of adopting them: a mmap reader feeds this constructor bytes from disk,
// so every invariant the rest of the library assumes must be checked here.
func TestFromCSRValidates(t *testing.T) {
	g := csrTestGraph(t)
	off, adj, eid, edges := g.CSR()

	clone := func(off []int64) []int64 { return append([]int64(nil), off...) }

	bad := clone(off)
	bad[0] = 1
	if _, err := FromCSR(bad, adj, eid, edges); err == nil {
		t.Error("off[0] != 0 accepted")
	}
	bad = clone(off)
	bad[len(bad)-1]++
	if _, err := FromCSR(bad, adj, eid, edges); err == nil {
		t.Error("off[n] != 2m accepted")
	}
	bad = clone(off)
	if len(bad) > 2 {
		bad[1], bad[2] = bad[2], bad[1]
		if bad[1] != bad[2] {
			if _, err := FromCSR(bad, adj, eid, edges); err == nil {
				t.Error("non-monotone off accepted")
			}
		}
	}
	// An offset past the adjacency array, decreasing only after the vertex
	// it overshoots, must be caught before that vertex is read: edge 0-1
	// plus isolated vertex 2, whose vertex 1 claims one arc too many.
	if _, err := FromCSR([]int64{0, 1, 3, 2}, []int32{1, 0}, []int32{0, 0}, []Edge{{U: 0, V: 1}}); err == nil {
		t.Error("offset past the adjacency array accepted")
	}
	badAdj := append([]int32(nil), adj...)
	badAdj[0] = int32(g.N()) + 5
	if _, err := FromCSR(off, badAdj, eid, edges); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	badEid := append([]int32(nil), eid...)
	badEid[0] = int32(g.M()) + 5
	if _, err := FromCSR(off, adj, badEid, edges); err == nil {
		t.Error("out-of-range edge ID accepted")
	}
	badEdges := append([]Edge(nil), edges...)
	badEdges[0].U, badEdges[0].V = badEdges[0].V, badEdges[0].U
	if _, err := FromCSR(off, adj, eid, badEdges); err == nil {
		t.Error("non-canonical edge (U > V) accepted")
	}
}
