package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

// naiveTriangles lists every triangle of g by trying every vertex w
// above each edge (u,v), in (U, V, W) order, with edge IDs from EdgeID.
func naiveTriangles(g *Graph) []Triangle {
	var ts []Triangle
	for _, e := range g.Edges() {
		for w := e.V + 1; int(w) < g.N(); w++ {
			if g.HasEdge(e.U, w) && g.HasEdge(e.V, w) {
				ts = append(ts, Triangle{
					U: e.U, V: e.V, W: w,
					EUV: g.EdgeID(e.U, e.V), EUW: g.EdgeID(e.U, w), EVW: g.EdgeID(e.V, w),
				})
			}
		}
	}
	return ts
}

// hubGraph builds a hub-heavy graph inline (graph's tests cannot import
// gen): n vertices by preferential attachment, each joining attach
// earlier ones, then hubs of the oldest vertices joined to every other
// vertex with probability 1/2. Vertex IDs are randomly permuted, so the
// hubs land anywhere in the ID order the listing orients by.
func hubGraph(rng *rand.Rand, n, attach, hubs int) *Graph {
	perm := rng.Perm(n)
	b := NewBuilder(n)
	add := func(u, v int) { b.AddEdge(int32(perm[u]), int32(perm[v])) }
	var ends []int // edge endpoints, for degree-proportional picks
	for v := 1; v < n; v++ {
		for range attach {
			u := rng.Intn(v)
			if len(ends) > 0 && rng.Intn(2) == 0 {
				u = ends[rng.Intn(len(ends))]
			}
			add(u, v)
			ends = append(ends, u, v)
		}
	}
	for h := range hubs {
		for v := range n {
			if v != h && rng.Intn(2) == 0 {
				add(h, v)
			}
		}
	}
	return b.Build()
}

// checkTriangles holds every triangle entry point on g to the naive
// oracle: each edge's support to its common-neighbour count, each
// vertex's count and the total to the naive list, and ForEachTriangle's
// list to the naive list (each triangle once, U < V < W, the right edge
// IDs). Two SupportsInto calls over mark, which must hold at least g.N()
// zeros, must each overwrite a stale sup with Supports' answer and leave
// the marker clear.
func checkTriangles(t *testing.T, g *Graph, mark []int32, label string) {
	t.Helper()
	want := naiveTriangles(g)
	sup := g.Supports()
	for id, e := range g.Edges() {
		if c := len(g.CommonNeighbors(nil, e.U, e.V)); int(sup[id]) != c {
			t.Fatalf("%s: edge (%d,%d) support %d, %d common neighbours", label, e.U, e.V, sup[id], c)
		}
	}
	again := make([]int32, g.M())
	for call := range 2 {
		for i := range again {
			again[i] = -1
		}
		g.SupportsInto(again, mark)
		for w, x := range mark {
			if x != 0 {
				t.Fatalf("%s: SupportsInto call %d left mark[%d] = %d", label, call, w, x)
			}
		}
		if !slices.Equal(again, sup) {
			t.Fatalf("%s: SupportsInto call %d gave %v, Supports %v", label, call, again, sup)
		}
	}
	tv := make([]int32, g.N())
	for _, tr := range want {
		tv[tr.U]++
		tv[tr.V]++
		tv[tr.W]++
	}
	if got := g.TrianglesPerVertex(); !slices.Equal(got, tv) {
		t.Fatalf("%s: TrianglesPerVertex %v, naive %v", label, got, tv)
	}
	if got := g.CountTriangles(); got != int64(len(want)) {
		t.Fatalf("%s: CountTriangles = %d, naive = %d", label, got, len(want))
	}
	var got []Triangle
	g.ForEachTriangle(func(tr Triangle) bool {
		got = append(got, tr)
		return true
	})
	slices.SortFunc(got, func(a, b Triangle) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: ForEachTriangle listed %v, naive %v", label, got, want)
	}
	calls := 0
	g.ForEachTriangle(func(Triangle) bool { calls++; return false })
	if calls != min(len(want), 1) {
		t.Fatalf("%s: ForEachTriangle went on for %d calls after fn returned false", label, calls)
	}
}

// TestTrianglesMatchNaive runs checkTriangles over random graphs and
// hub-heavy graphs with permuted IDs, all through one marker, grown to
// the largest graph so far and reused on smaller ones.
func TestTrianglesMatchNaive(t *testing.T) {
	rng := testutil.Rand(t, 7)
	var mark []int32
	check := func(g *Graph, label string) {
		t.Helper()
		if len(mark) < g.N() {
			mark = make([]int32, g.N())
		}
		checkTriangles(t, g, mark, label)
	}
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n*n/3; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		check(b.Build(), fmt.Sprintf("random trial %d", trial))
	}
	for _, c := range []struct{ n, attach, hubs int }{
		{150, 4, 3}, {120, 2, 1}, {80, 6, 2}, {60, 1, 5},
	} {
		for trial := 0; trial < 3; trial++ {
			check(hubGraph(rng, c.n, c.attach, c.hubs), fmt.Sprintf("hub graph %+v trial %d", c, trial))
		}
	}
	check(NewBuilder(0).Build(), "empty graph")
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
