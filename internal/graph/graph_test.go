package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trussdiv/internal/testutil"
)

// k4 returns the complete graph on 4 vertices.
func k4(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 2) // self loop, dropped
	b.AddEdge(1, 3)
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 1) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 3) {
		t.Fatal("unexpected edges present")
	}
	if g.Degree(2) != 0 {
		t.Fatalf("Degree(2) = %d, want 0", g.Degree(2))
	}
}

func TestEdgeIDsConsistent(t *testing.T) {
	g := k4(t)
	seen := map[int32]bool{}
	for u := int32(0); u < 4; u++ {
		nbr, ids := g.Arcs(u)
		for i, v := range nbr {
			id := ids[i]
			e := g.Edge(id)
			if !(e.U == u && e.V == v || e.U == v && e.V == u) {
				t.Fatalf("edge %d endpoints %v, arc (%d,%d)", id, e, u, v)
			}
			if g.EdgeID(u, v) != id || g.EdgeID(v, u) != id {
				t.Fatalf("EdgeID(%d,%d) inconsistent with arc id %d", u, v, id)
			}
			seen[id] = true
		}
	}
	if len(seen) != g.M() {
		t.Fatalf("saw %d distinct edge IDs, want %d", len(seen), g.M())
	}
}

func TestNeighborsSortedAndDegreeSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		sum := 0
		for v := 0; v < g.N(); v++ {
			nbr := g.Neighbors(int32(v))
			for i := 1; i < len(nbr); i++ {
				if nbr[i-1] >= nbr[i] {
					return false // not strictly sorted => dup or disorder
				}
			}
			sum += len(nbr)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrianglesK4(t *testing.T) {
	g := k4(t)
	if got := g.CountTriangles(); got != 4 {
		t.Fatalf("K4 triangles = %d, want 4", got)
	}
	for _, s := range g.Supports() {
		if s != 2 {
			t.Fatalf("K4 edge support = %d, want 2", s)
		}
	}
	for _, c := range g.TrianglesPerVertex() {
		if c != 3 {
			t.Fatalf("K4 vertex triangle count = %d, want 3", c)
		}
	}
}

// naiveTriangles counts triangles by checking all vertex triples.
func naiveTriangles(g *Graph) int64 {
	var c int64
	n := int32(g.N())
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				continue
			}
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, w) && g.HasEdge(v, w) {
					c++
				}
			}
		}
	}
	return c
}

func TestTrianglesMatchNaive(t *testing.T) {
	rng := testutil.Rand(t, 7)
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n*n/3; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		want := naiveTriangles(g)
		if got := g.CountTriangles(); got != want {
			t.Fatalf("trial %d: CountTriangles = %d, naive = %d", trial, got, want)
		}
		// Sum of supports equals 3T.
		var supSum int64
		for _, s := range g.Supports() {
			supSum += int64(s)
		}
		if supSum != 3*want {
			t.Fatalf("trial %d: support sum %d != 3T=%d", trial, supSum, 3*want)
		}
		// Sum of per-vertex counts equals 3T as well.
		var tvSum int64
		for _, c := range g.TrianglesPerVertex() {
			tvSum += int64(c)
		}
		if tvSum != 3*want {
			t.Fatalf("trial %d: vertex triangle sum %d != 3T=%d", trial, tvSum, 3*want)
		}
	}
}

func TestTriangleEdgeIDsValid(t *testing.T) {
	rng := testutil.Rand(t, 11)
	n := 40
	b := NewBuilder(n)
	for i := 0; i < 300; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	g.ForEachTriangle(func(tr Triangle) bool {
		if g.EdgeID(tr.U, tr.V) != tr.EUV || g.EdgeID(tr.U, tr.W) != tr.EUW || g.EdgeID(tr.V, tr.W) != tr.EVW {
			t.Fatalf("triangle %+v has wrong edge IDs", tr)
		}
		return true
	})
}

func TestCommonNeighbors(t *testing.T) {
	b := NewBuilder(6)
	// 0-1, 0-2, 0-3, 1-2, 1-3, 4-5
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(4, 5)
	g := b.Build()
	got := g.CommonNeighbors(nil, 0, 1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("CommonNeighbors(0,1) = %v, want [2 3]", got)
	}
	if cn := g.CommonNeighbors(nil, 0, 4); len(cn) != 0 {
		t.Fatalf("CommonNeighbors(0,4) = %v, want empty", cn)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build() // {0,1,2}, {3,4}, {5}, {6}
	labels, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] {
		t.Fatal("same-component vertices got different labels")
	}
	if labels[0] == labels[3] || labels[5] == labels[6] {
		t.Fatal("different components share a label")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := k4(t)
	sub, l2g := g.InducedSubgraph([]int32{3, 1, 2, 2})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: N=%d M=%d", sub.N(), sub.M())
	}
	want := []int32{1, 2, 3}
	for i, v := range l2g {
		if v != want[i] {
			t.Fatalf("local2global = %v, want %v", l2g, want)
		}
	}
}

func TestFilterEdges(t *testing.T) {
	g := k4(t)
	sub := g.FilterEdges(func(id int32) bool { return g.Edge(id).U == 0 })
	if sub.N() != 4 || sub.M() != 3 {
		t.Fatalf("filtered star: N=%d M=%d", sub.N(), sub.M())
	}
	if sub.Degree(0) != 3 || sub.Degree(1) != 1 {
		t.Fatal("filtered degrees wrong")
	}
}

func TestDegreeOrder(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	g := b.Build() // degrees: 0:3, 1:2, 2:2, 3:1
	order, rank := g.DegreeOrder()
	wantOrder := []int32{3, 1, 2, 0}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", order, wantOrder)
		}
		if rank[order[i]] != int32(i) {
			t.Fatal("rank inconsistent with order")
		}
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	g, err := FromEdges(5, []Edge{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 1 {
		t.Fatalf("N=%d M=%d, want 5,1", g.N(), g.M())
	}
}
