package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// rawArrays returns g's CSR arrays as they are held, without laying out
// an edited graph's edge IDs: eid and edges are nil while they are unlaid.
func rawArrays(g *Graph) [4]any {
	eid, edges := g.eid, g.edges
	if p := g.ids.Load(); p != nil {
		eid, edges = p.eid, p.edges
	}
	return [4]any{g.off, g.adj, eid, edges}
}

// unlaid reports whether g is an edited graph whose edge IDs are not laid
// out yet.
func unlaid(g *Graph) bool { return g.edited && g.ids.Load() == nil }

// checkEdit applies one batch with Edit and checks it byte for byte
// against the oracle, and g against its own copy from before the edit.
// The edit result leaves its edge IDs unlaid through M and Fingerprint,
// and Edit does not lay out g's. It returns the result still unlaid and
// a second, identical edit of g whose IDs the check laid out.
func checkEdit(t *testing.T, label string, g *Graph, ins, del []Edge) (fresh, laid *Graph) {
	t.Helper()
	wasUnlaid := unlaid(g)
	before := fmt.Sprint(rawArrays(g))
	fresh, laid = g.Edit(ins, del), g.Edit(ins, del)
	if fmt.Sprint(rawArrays(g)) != before {
		t.Fatalf("%s: Edit wrote into the graph it edited", label)
	}
	if wasUnlaid && !unlaid(g) {
		t.Fatalf("%s: Edit laid out the edited graph's edge IDs", label)
	}
	want := editOracle(t, g, ins, del)
	for _, got := range []*Graph{fresh, laid} {
		if !unlaid(got) {
			t.Fatalf("%s: Edit laid out its result's edge IDs", label)
		}
		if got.M() != want.M() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: M = %d, fingerprint %x; want %d, %x from FromEdges",
				label, got.M(), got.Fingerprint(), want.M(), want.Fingerprint())
		}
		if got.HasEdge(0, 1) != want.HasEdge(0, 1) || !unlaid(got) {
			t.Fatalf("%s: M, Fingerprint or HasEdge laid out the edge IDs", label)
		}
	}
	gOff, gAdj, gEid, gEdges := laid.CSR()
	wOff, wAdj, wEid, wEdges := want.CSR()
	switch {
	case laid.N() != want.N():
		t.Fatalf("%s: N = %d, want %d", label, laid.N(), want.N())
	case !slices.Equal(gEdges, wEdges):
		t.Fatalf("%s: edges differ from FromEdges\n got %v\nwant %v", label, gEdges, wEdges)
	case !slices.Equal(gOff, wOff):
		t.Fatalf("%s: off differs from FromEdges\n got %v\nwant %v", label, gOff, wOff)
	case !slices.Equal(gAdj, wAdj):
		t.Fatalf("%s: adj differs from FromEdges", label)
	case !slices.Equal(gEid, wEid):
		t.Fatalf("%s: eid differs from FromEdges", label)
	case laid.Fingerprint() != want.Fingerprint():
		t.Fatalf("%s: fingerprint differs from FromEdges after layout", label)
	}
	for id, e := range wEdges {
		if laid.Edge(int32(id)) != e || laid.EdgeID(e.U, e.V) != int32(id) {
			t.Fatalf("%s: edge %d = %v is not found under its ID", label, id, e)
		}
	}
	if unlaid(laid) || !unlaid(fresh) {
		t.Fatalf("%s: edge IDs laid out on the wrong graph", label)
	}
	return fresh, laid
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
// the edited edge list once its edge IDs are laid out, and before that
// has the same M and fingerprint with the IDs still unlaid; the edited
// graph is never written. Hand-made corners come first — edits at vertex
// 0 and at n-1, a vertex losing all its edges, an isolated vertex gaining
// one, the empty batch, the graph emptied and refilled — then chained
// random batches on random graphs, alternating insert-only, delete-only
// and mixed ones, and alternating between editing a result whose IDs are
// laid out and one whose IDs are not.
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
			fresh, laid := checkEdit(t, fmt.Sprintf("trial %d step %d", trial, step), g, ins, del)
			if g = laid; step%2 == 1 {
				g = fresh
			}
		}
	}
}

// TestEditLayoutRace: four goroutines make the first per-edge call on the
// same fresh Edit result at once — through Arcs, Edges and CSR — and all
// read the arrays FromEdges lays out. Under -race it also checks that the
// layout is published safely.
func TestEditLayoutRace(t *testing.T) {
	rng := testutil.Rand(t, 17)
	b := NewBuilder(300)
	for range 1500 {
		b.AddEdge(rng.Int31n(300), rng.Int31n(300))
	}
	g := b.Build()
	ins, del := randomBatch(rng, g, 20, 20)
	_, _, wantEid, wantEdges := editOracle(t, g, ins, del).CSR()
	for trial := range 20 {
		got := g.Edit(ins, del)
		var eids [4][]int32
		var edges [4][]Edge
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch w {
				case 0, 1: // Arcs first, vertex by vertex from either end
					eids[w] = make([]int32, 2*got.M())
					for i := range got.N() {
						v := int32(i)
						if w == 1 {
							v = int32(got.N() - 1 - i)
						}
						_, ids := got.Arcs(v)
						copy(eids[w][got.off[v]:], ids)
					}
					edges[w] = got.Edges()
				case 2:
					edges[w] = got.Edges()
					_, _, eids[w], _ = got.CSR()
				case 3:
					_, _, eids[w], edges[w] = got.CSR()
				}
			}()
		}
		close(start)
		wg.Wait()
		for w := range 4 {
			if !slices.Equal(eids[w], wantEid) || !slices.Equal(edges[w], wantEdges) {
				t.Fatalf("trial %d: goroutine %d read edge IDs that differ from FromEdges", trial, w)
			}
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
