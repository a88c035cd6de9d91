package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trussdiv/internal/testutil"
)

// editOracle is the edit as plain edge-set operations: the edited edge
// list, laid out from scratch by FromEdges.
func editOracle(t *testing.T, g *Graph, ins, del []Edge) *Graph {
	t.Helper()
	var edges []Edge
	for _, e := range g.Edges() {
		if _, gone := slices.BinarySearchFunc(del, e, CompareEdges); !gone {
			edges = append(edges, e)
		}
	}
	want, err := FromEdges(g.N(), append(edges, ins...))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkEdit applies one batch with Edit and checks it byte for byte
// against the oracle, and g against its own copy from before the edit.
func checkEdit(t *testing.T, label string, g *Graph, ins, del []Edge) *Graph {
	t.Helper()
	off, adj, eid, edges := g.CSR()
	before := [4]any{slices.Clone(off), slices.Clone(adj), slices.Clone(eid), slices.Clone(edges)}
	got := g.Edit(ins, del)
	want := editOracle(t, g, ins, del)
	gOff, gAdj, gEid, gEdges := got.CSR()
	wOff, wAdj, wEid, wEdges := want.CSR()
	switch {
	case got.N() != want.N():
		t.Fatalf("%s: N = %d, want %d", label, got.N(), want.N())
	case !slices.Equal(gEdges, wEdges):
		t.Fatalf("%s: edges differ from FromEdges\n got %v\nwant %v", label, gEdges, wEdges)
	case !slices.Equal(gOff, wOff):
		t.Fatalf("%s: off differs from FromEdges\n got %v\nwant %v", label, gOff, wOff)
	case !slices.Equal(gAdj, wAdj):
		t.Fatalf("%s: adj differs from FromEdges", label)
	case !slices.Equal(gEid, wEid):
		t.Fatalf("%s: eid differs from FromEdges", label)
	case got.Fingerprint() != want.Fingerprint():
		t.Fatalf("%s: fingerprint differs from FromEdges", label)
	}
	off, adj, eid, edges = g.CSR()
	if after := [4]any{off, adj, eid, edges}; fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("%s: Edit wrote into the graph it edited", label)
	}
	return got
}

// randomBatch picks up to nIns absent edges and up to nDel present ones,
// canonical, sorted and disjoint, as Edit takes them.
func randomBatch(rng *rand.Rand, g *Graph, nIns, nDel int) (ins, del []Edge) {
	n := int32(g.N())
	for i := 0; i < nIns && n > 1; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u > v {
			u, v = v, u
		}
		if u != v && !g.HasEdge(u, v) {
			ins = append(ins, Edge{u, v})
		}
	}
	for i := 0; i < nDel && g.M() > 0; i++ {
		del = append(del, g.Edge(rng.Int31n(int32(g.M()))))
	}
	slices.SortFunc(ins, CompareEdges)
	slices.SortFunc(del, CompareEdges)
	return slices.Compact(ins), slices.Compact(del)
}

// TestEditMatchesFromEdges: Edit's graph is byte-equal to FromEdges of
// the edited edge list, and the edited graph is never written. Hand-made
// corners come first — edits at vertex 0 and at n-1, a vertex losing all
// its edges, an isolated vertex gaining one, the empty batch, the graph
// emptied and refilled — then chained random batches on random graphs,
// alternating insert-only, delete-only and mixed ones.
func TestEditMatchesFromEdges(t *testing.T) {
	// 0-1, 0-2, 1-2, 2-3, 3-4; vertex 5 isolated, n = 6.
	g, err := FromEdges(6, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		g        *Graph
		ins, del []Edge
	}{
		{"empty batch", g, nil, nil},
		{"insert at vertex 0", g, []Edge{{0, 3}}, nil},
		{"insert at n-1", g, []Edge{{4, 5}}, nil},
		{"delete at vertex 0", g, nil, []Edge{{0, 1}}},
		{"vertex 0 loses every edge", g, nil, []Edge{{0, 1}, {0, 2}}},
		{"vertex n-2 loses its edge, n-1 gains one", g, []Edge{{0, 5}}, []Edge{{3, 4}}},
		{"isolated vertex gains one edge", g, []Edge{{2, 5}}, nil},
		{"first and last edge swapped out", g, []Edge{{0, 4}, {4, 5}}, []Edge{{0, 1}, {3, 4}}},
		{"every edge deleted", g, nil, g.Edges()},
		{"empty graph filled", empty, []Edge{{0, 1}, {0, 4}, {3, 4}}, nil},
		{"empty graph, empty batch", empty, nil, nil},
	} {
		checkEdit(t, tc.name, tc.g, tc.ins, tc.del)
	}
	rng := testutil.Rand(t, 113)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
		}
		g := b.Build()
		for step := 0; step < 8; step++ {
			var ins, del []Edge
			switch step % 4 {
			case 0: // inserts only
				ins, _ = randomBatch(rng, g, 1+rng.Intn(8), 0)
			case 1: // deletes only
				_, del = randomBatch(rng, g, 0, 1+rng.Intn(8))
			default:
				ins, del = randomBatch(rng, g, rng.Intn(9), rng.Intn(9))
			}
			g = checkEdit(t, fmt.Sprintf("trial %d step %d", trial, step), g, ins, del)
		}
	}
}

// TestEditRejectsInvalidEdits: an insertion already in the graph or a
// deletion not in it panics instead of laying out a corrupt graph.
func TestEditRejectsInvalidEdits(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string][2][]Edge{
		"insert present": {{{1, 2}}, nil},
		"delete absent":  {nil, {{2, 3}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Edit did not panic", name)
				}
			}()
			g.Edit(batch[0], batch[1])
		}()
	}
}
