package core

import (
	"context"
	"sort"

	"trussdiv/internal/dsu"
	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// GCTSuperEdge connects two supernodes of a vertex's GCT structure; A and B
// are supernode indices and W is the trussness of the underlying ego edge.
type GCTSuperEdge struct {
	A, B int32
	W    int32
}

// gctVertex is the per-vertex compressed structure (paper Fig. 7): a forest
// of supernodes. Supernodes are stored with trussness descending so that
// N_k = |{S : τ(S) >= k}| is a binary search; superedge weights likewise.
type gctVertex struct {
	nodeTau   []int32        // per supernode, descending
	memberOff []int32        // supernode i owns members[memberOff[i]:memberOff[i+1]]
	members   []int32        // local vertex IDs grouped by supernode
	edges     []GCTSuperEdge // by weight descending
}

// GCTIndex is the compressed truss-based diversity index (paper §6): per
// vertex, supernodes group the members of each same-trussness block of a
// social context, and superedges record the maximum-spanning-forest links
// between blocks. Queries use Lemma 3: score(v) = N_k - M_k.
type GCTIndex struct {
	g     *graph.Graph
	verts paged[gctVertex]
}

// BuildGCTIndex runs Algorithm 7: one-shot global triangle listing to
// extract every ego-network, truss decomposition of each with §6.2's
// bitmap supports (truss.Scratch.DecomposeBitmapInto), then Algorithm 8
// to compress each one's maximum spanning forest into supernodes and
// superedges. It is kept as the paper's reference construction — Table 3
// times it, and the parity tests use it as an oracle independent of
// BuildAll, which builds the identical index from the per-vertex pass
// every other structure shares.
func BuildGCTIndex(g *graph.Graph) *GCTIndex {
	n := g.N()
	idx := &GCTIndex{g: g, verts: makePaged[gctVertex](n)}
	all := ego.ExtractAll(g)
	var es ego.Scratch
	var ts truss.Scratch
	var fs forestScratch
	for v := int32(0); int(v) < n; v++ {
		if all.EdgeCount(v) == 0 {
			continue
		}
		net := all.NetworkInto(&es, v)
		tau := ts.DecomposeBitmapInto(net.G)
		forest, vt := fs.span(net.G, tau)
		idx.verts.set(v, buildGCTVertex(net.G, tau, forest, vt))
	}
	return idx
}

// buildGCTVertex is Algorithm 8 for one ego-network: initialize one
// supernode per vertex with its vertex trussness vt, walk the maximum
// spanning forest's edges (forestScratch.span over tau) in descending
// trussness, merge equal-trussness supernodes joined by an edge of that
// same trussness, and record a superedge otherwise. The result is the
// TSD forest, compressed.
func buildGCTVertex(local *graph.Graph, tau, forest, vt []int32) gctVertex {
	nv := local.N()
	node := dsu.New(nv) // supernode membership
	snTau := make([]int32, nv)
	copy(snTau, vt)
	type rawEdge struct {
		u, w int32 // local vertices; resolved to supernodes afterwards
		t    int32
	}
	var raw []rawEdge
	for _, id := range forest {
		e := local.Edge(id)
		ru, rw := node.Find(e.U), node.Find(e.V)
		t := tau[id]
		if snTau[ru] == t && snTau[rw] == t {
			// Same-trussness blocks joined by an edge of that trussness:
			// they belong to one supernode.
			node.Union(ru, rw)
			snTau[node.Find(ru)] = t
		} else {
			raw = append(raw, rawEdge{e.U, e.V, t})
		}
	}

	// Finalize: index supernodes (skip isolated ego vertices, which belong
	// to no k-truss for any k >= 2), group members, resolve superedges.
	snIndex := make(map[int32]int32)
	var order []int32 // supernode roots
	for u := int32(0); u < int32(nv); u++ {
		if local.Degree(u) == 0 {
			continue
		}
		r := node.Find(u)
		if _, ok := snIndex[r]; !ok {
			snIndex[r] = int32(len(order))
			order = append(order, r)
		}
	}
	// Sort supernodes by trussness descending (ties: root ascending) so
	// N_k is a prefix count.
	sort.Slice(order, func(i, j int) bool {
		ti, tj := snTau[order[i]], snTau[order[j]]
		if ti != tj {
			return ti > tj
		}
		return order[i] < order[j]
	})
	for i, r := range order {
		snIndex[r] = int32(i)
	}
	gv := gctVertex{
		nodeTau:   make([]int32, len(order)),
		memberOff: make([]int32, len(order)+1),
	}
	for i, r := range order {
		gv.nodeTau[i] = snTau[r]
	}
	// Count members per supernode, then fill.
	memberCount := make([]int32, len(order))
	for u := int32(0); u < int32(nv); u++ {
		if local.Degree(u) == 0 {
			continue
		}
		memberCount[snIndex[node.Find(u)]]++
	}
	for i := range order {
		gv.memberOff[i+1] = gv.memberOff[i] + memberCount[i]
	}
	gv.members = make([]int32, gv.memberOff[len(order)])
	fill := make([]int32, len(order))
	copy(fill, gv.memberOff[:len(order)])
	for u := int32(0); u < int32(nv); u++ {
		if local.Degree(u) == 0 {
			continue
		}
		si := snIndex[node.Find(u)]
		gv.members[fill[si]] = u
		fill[si]++
	}
	// Superedges: resolve endpoints to final supernode indices; sort by
	// weight descending for the M_k prefix count.
	gv.edges = make([]GCTSuperEdge, len(raw))
	for i, re := range raw {
		gv.edges[i] = GCTSuperEdge{
			A: snIndex[node.Find(re.u)],
			B: snIndex[node.Find(re.w)],
			W: re.t,
		}
	}
	sort.Slice(gv.edges, func(i, j int) bool { return gv.edges[i].W > gv.edges[j].W })
	return gv
}

// Graph returns the graph the index was built over.
func (idx *GCTIndex) Graph() *graph.Graph { return idx.g }

// Supernodes returns (trussness, member count) pairs of v's supernodes in
// descending trussness order; used by analysis tools and tests.
func (idx *GCTIndex) Supernodes(v int32) (taus []int32, sizes []int32) {
	gv := idx.verts.ref(v)
	sizes = make([]int32, len(gv.nodeTau))
	for i := range gv.nodeTau {
		sizes[i] = gv.memberOff[i+1] - gv.memberOff[i]
	}
	return gv.nodeTau, sizes
}

// SuperEdges returns v's superedges (weight descending). Aliases storage.
func (idx *GCTIndex) SuperEdges(v int32) []GCTSuperEdge { return idx.verts.ref(v).edges }

// Score applies Lemma 3: score(v) = N_k - M_k, where N_k counts supernodes
// with trussness >= k and M_k counts superedges with weight >= k. Both are
// binary searches over descending arrays, so a query costs O(log d(v)).
func (idx *GCTIndex) Score(v int32, k int32) int {
	gv := idx.verts.ref(v)
	nk := sort.Search(len(gv.nodeTau), func(i int) bool { return gv.nodeTau[i] < k })
	mk := sort.Search(len(gv.edges), func(i int) bool { return gv.edges[i].W < k })
	return nk - mk
}

// Contexts reconstructs SC(v): union the qualifying supernodes across
// qualifying superedges and lay out each component's member vertices, as
// global IDs, with a dsu.Grouper.
func (idx *GCTIndex) Contexts(v int32, k int32) [][]int32 {
	gv := idx.verts.ref(v)
	nk := sort.Search(len(gv.nodeTau), func(i int) bool { return gv.nodeTau[i] < k })
	if nk == 0 {
		return nil
	}
	s := groupScratchPool.Get().(*groupScratch)
	defer groupScratchPool.Put(s)
	s.d.Init(nk)
	for _, e := range gv.edges {
		if e.W < k {
			break
		}
		s.d.Union(e.A, e.B) // qualifying superedges always join qualifying nodes
	}
	// Group local vertices by their supernode's component; a supernode
	// index is below nk <= deg, so it serves as the class label.
	verts := idx.g.Neighbors(v)
	roots := s.gr.Roots(len(verts))
	for si := int32(0); si < int32(nk); si++ {
		r := s.d.Find(si)
		for _, lv := range gv.members[gv.memberOff[si]:gv.memberOff[si+1]] {
			roots[lv] = r
		}
	}
	return s.gr.Groups(roots, verts)
}

// SizeBytes returns the in-memory footprint of the compressed structures
// (Table 3's "index size" for GCT).
func (idx *GCTIndex) SizeBytes() int64 {
	var b int64
	for _, page := range idx.verts.pages {
		for i := range page {
			gv := &page[i]
			b += int64(len(gv.nodeTau))*4 + int64(len(gv.memberOff))*4 +
				int64(len(gv.members))*4 + int64(len(gv.edges))*12 + 4*24
		}
	}
	return b
}

// GCT is the index-based searcher of §6: exact scores for every vertex are
// O(log) reads, so the search computes them all, bin-sorts, and retrieves
// contexts only for the answers.
type GCT struct {
	idx *GCTIndex
}

// NewGCT returns a GCT searcher over a built index.
func NewGCT(idx *GCTIndex) *GCT { return &GCT{idx: idx} }

// Index returns the underlying GCT index.
func (s *GCT) Index() *GCTIndex { return s.idx }

// TopR answers the top-r query in O(m) total time.
func (s *GCT) TopR(k int32, r int) (*Result, *Stats, error) {
	return s.Search(context.Background(), Params{K: k, R: r})
}

// Search answers the top-r query from the compressed index. Per-vertex
// scores are O(log) binary searches over read-only arrays — safe from any
// number of workers — so p.Workers goroutines claim the candidates in
// blocks of pollEvery, polling the context once per block rather than on
// every iteration.
func (s *GCT) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	g := s.idx.g
	p, err := p.normalized(g.N())
	if err != nil {
		return nil, nil, err
	}
	if m := p.Measure.Normalize(); m != MeasureTruss {
		// The supernode/superedge compression encodes truss decompositions;
		// it cannot answer the component or core measures.
		return nil, nil, &UnsupportedMeasureError{Engine: "gct", Measure: m}
	}
	heap, scored, err := scanTopR(ctx, g.N(), p.Candidates, p.R, p.workers(), pollEvery,
		func() func(v int32) int {
			return func(v int32) int { return s.idx.Score(v, p.K) }
		})
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{ScoreComputations: scored, Candidates: scored}
	res, err := finishResult(ctx, heap.Answer(), p, func(v int32) [][]int32 {
		return s.idx.Contexts(v, p.K)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}
