package truss

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// mergeSupports is the support count the oriented listing replaced,
// kept as the test oracle: every edge merges its endpoints' sorted
// adjacency lists, so each triangle is counted once from each of its
// three edges.
func mergeSupports(g *graph.Graph) []int32 {
	sup := make([]int32, g.M())
	for id, e := range g.Edges() {
		forEachCommonArc(g, e.U, e.V, func(_, _, _ int32) { sup[id]++ })
	}
	return sup
}

// markClear fails unless the listing marker is all zero, the invariant
// that lets one Scratch serve every later call and graph.
func markClear(t *testing.T, s *Scratch, label string) {
	t.Helper()
	for w, x := range s.mark {
		if x != 0 {
			t.Fatalf("%s: marker left mark[%d] = %d", label, w, x)
		}
	}
}

// scanGraphs returns the Fig. 1 graph, the shapes of the engine
// conformance suite (a star, a community overlay, a Barabási–Albert and
// an Erdős–Rényi graph) and every ego-network of the Fig. 1 graph and of
// a seeded overlay.
func scanGraphs(t *testing.T) []*graph.Graph {
	rng := testutil.Rand(t, 777)
	gs := []*graph.Graph{
		gen.Fig1Graph(),
		gen.Star(40),
		gen.CommunityOverlay(gen.OverlayConfig{
			N: 240, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 9, Seed: rng.Int63(),
		}),
		gen.BarabasiAlbert(200, 4, rng.Int63()),
		gen.ErdosRenyiGNM(150, 900, rng.Int63()),
	}
	gs = append(gs, egoNets(gen.Fig1Graph())...)
	return append(gs, egoNets(overlayGraph(t))...)
}

// checkKTruss holds s.KTrussInto(h, k) for k = 2..τ_max+1 to the full
// decomposition want: τ equal below k and k from there up, and the same
// CountComponents and Components at k. The marker must be clear after
// every call.
func checkKTruss(t *testing.T, s *Scratch, h *graph.Graph, want []int32, label string) {
	t.Helper()
	for k := int32(2); k <= MaxTrussness(want)+1; k++ {
		got := s.KTrussInto(h, k)
		markClear(t, s, label)
		for id, w := range want {
			if exp := min(w, k); got[id] != exp {
				e := h.Edge(int32(id))
				t.Fatalf("%s k=%d: edge (%d,%d) tau = %d, want %d (full %d)",
					label, k, e.U, e.V, got[id], exp, w)
			}
		}
		if c, w := s.CountComponents(h, got, k), CountComponents(h, want, k); c != w {
			t.Fatalf("%s k=%d: CountComponents = %d, full decomposition %d", label, k, c, w)
		}
		if c, w := s.Components(h, got, k, nil), Components(h, want, k); !slices.EqualFunc(c, w, slices.Equal) {
			t.Fatalf("%s k=%d: Components = %v, full decomposition %v", label, k, c, w)
		}
	}
}

// TestKTrussIntoMatchesDecompose pins the single-k peel against the full
// one on one reused Scratch, over the scan graphs and every k from 2 to
// one past the largest trussness.
func TestKTrussIntoMatchesDecompose(t *testing.T) {
	var s Scratch
	for i, h := range scanGraphs(t) {
		checkKTruss(t, &s, h, Decompose(h), fmt.Sprintf("graph %d (n=%d, m=%d)", i, h.N(), h.M()))
	}
}

// TestListedSupportsMatchMerge holds the oriented listing's supports
// (graph.SupportsInto over one Scratch's sup and marker, as KTrussInto
// runs it) equal to the per-edge merge count on the scan graphs, with the
// marker clear after each listing.
func TestListedSupportsMatchMerge(t *testing.T) {
	var s Scratch
	for i, h := range scanGraphs(t) {
		s.sup = grow(s.sup, h.M())
		if len(s.mark) < h.N() {
			s.mark = make([]int32, h.N())
		}
		h.SupportsInto(s.sup, s.mark)
		label := fmt.Sprintf("graph %d (n=%d, m=%d)", i, h.N(), h.M())
		markClear(t, &s, label)
		if want := mergeSupports(h); !slices.Equal(s.sup, want) {
			t.Fatalf("%s: listed supports %v, merge count %v", label, s.sup, want)
		}
	}
}

// TestKTrussIntoAllocFree pins a warm Scratch at zero allocations per
// KTrussInto and DecomposeInto over an alternating sequence of growing
// and shrinking ego-networks: the smallest and the largest of an overlay
// graph's ego-networks by turns, so n rises and falls on every call.
func TestKTrussIntoAllocFree(t *testing.T) {
	nets := egoNets(overlayGraph(t))
	sort.SliceStable(nets, func(i, j int) bool { return nets[i].N() < nets[j].N() })
	seq := make([]*graph.Graph, 0, len(nets))
	for lo, hi := 0, len(nets)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		seq = append(seq, nets[lo])
		if lo < hi {
			seq = append(seq, nets[hi])
		}
	}
	var s Scratch
	// One sweep grows every slab to its high-water mark.
	for _, h := range seq {
		s.DecomposeInto(h)
		s.KTrussInto(h, 4)
	}
	var i int
	if got := testing.AllocsPerRun(300, func() {
		h := seq[i%len(seq)]
		s.KTrussInto(h, int32(3+i%4))
		s.DecomposeInto(h)
		i++
	}); got != 0 {
		t.Errorf("alternating KTrussInto/DecomposeInto allocates %.1f per pair, want 0", got)
	}
}

// FuzzDecomposeInto decodes one small graph and decomposes it and each of
// its ego-networks through one Scratch: DecomposeInto must equal
// Decompose, KTrussInto must give the same counts and contexts at every
// k, and the listing marker must be all zero after every call.
func FuzzDecomposeInto(f *testing.F) {
	var fig1 []byte
	for _, e := range gen.Fig1Graph().Edges() {
		fig1 = append(fig1, byte(e.U), byte(e.V))
	}
	f.Add(uint8(gen.Fig1Graph().N()), fig1)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 0, 0, 3, 1, 3, 2, 3, 3, 4, 4, 5})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		// N ≤ 64; the edges are byte pairs taken mod N.
		nv := int(n % 65)
		b := graph.NewBuilder(nv)
		for i := 0; nv > 0 && i+1 < len(raw); i += 2 {
			b.AddEdge(int32(int(raw[i])%nv), int32(int(raw[i+1])%nv))
		}
		g := b.Build()
		var s Scratch
		for i, h := range append([]*graph.Graph{g}, egoNets(g)...) {
			label := fmt.Sprintf("graph %d (n=%d, m=%d)", i, h.N(), h.M())
			want := Decompose(h)
			got := s.DecomposeInto(h)
			markClear(t, &s, label)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: DecomposeInto = %v, Decompose %v", label, got, want)
			}
			checkKTruss(t, &s, h, want, label)
		}
	})
}
