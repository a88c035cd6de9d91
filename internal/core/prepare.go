package core

import (
	"runtime"
	"slices"
	"sync"

	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
	"trussdiv/internal/truss"
)

// Single-pass multi-structure construction and repair. Every accelerator
// this package builds — the TSD forests, the GCT supernode structures,
// and the per-measure per-k rankings — starts from the same two
// per-vertex steps: extract the ego-network and decompose it. One worker
// body (egoPass) walks each listed vertex exactly once and feeds the
// shared extraction (and, for the truss-derived structures, the shared
// decomposition) to every requested consumer. It has two entries:
// BuildAll runs it over every vertex, and PatchAll runs it over the
// vertices an edit batch affects, splicing the results into the previous
// graph's structures. Preparing or repairing N structures therefore pays
// for one extraction pass instead of N.

// BuildTargets selects which structures one BuildAll or PatchAll pass
// produces.
type BuildTargets struct {
	// TSD requests the per-vertex maximum spanning forests (Algorithm 5).
	TSD bool
	// GCT requests the compressed supernode structures (Algorithms 7-8).
	GCT bool
	// Measures requests the per-k ranking table of each named measure.
	// The truss table is read straight off the shared decomposition: by
	// Lemma 3 the supernode/superedge count N_k - M_k a GCT index scores
	// with equals the k-truss component count, so it is exactly the
	// hybrid engine's table.
	Measures []Measure
}

// BuildProducts carries the structures one BuildAll or PatchAll pass
// produced; fields for unrequested targets stay zero.
type BuildProducts struct {
	TSD *TSDIndex
	GCT *GCTIndex
	// MeasureRanks holds each requested measure's per-k rankings (feed
	// NewRanked): perK[k] sorted by score descending then vertex
	// ascending, zero scores omitted, nil for empty lists and for k < 2,
	// the table trimmed to the largest k any vertex scores at (minimum
	// length 3).
	MeasureRanks map[Measure][][]VertexScore
}

// BuildAll builds every requested structure in one pass over the
// vertices, sharded across `workers` goroutines (0 or negative =
// GOMAXPROCS). Each worker owns one extraction/decomposition scratch
// set and writes per-vertex results into disjoint slots, so the
// assembled products are identical for every worker count.
func BuildAll(g *graph.Graph, t BuildTargets, workers int) *BuildProducts {
	n := g.N()
	p := newEgoPass(g, t, n)
	if t.TSD {
		p.tsd = &TSDIndex{
			g:     g,
			edges: make([][]TSDEdge, n),
			mv:    make([]int32, n),
			vtCum: make([][]int32, n),
		}
	}
	if t.GCT {
		p.gct = &GCTIndex{g: g, verts: make([]gctVertex, n)}
	}
	p.run(n, workers, func(slot int) int32 { return int32(slot) })

	out := &BuildProducts{TSD: p.tsd, GCT: p.gct}
	for m, vecs := range p.vecs {
		if out.MeasureRanks == nil {
			out.MeasureRanks = make(map[Measure][][]VertexScore, len(p.vecs))
		}
		out.MeasureRanks[m] = assembleMeasureRanks(vecs)
	}
	return out
}

// PatchAll is BuildAll's repair entry for an edit batch: the same
// per-vertex pass, run over only the affected vertices (sorted, from
// AffectedVertices) of the edited graph g — no other vertex's
// ego-network changed. t.TSD and t.GCT re-derive those vertices' entries
// of old.TSD and old.GCT (both must then be set), and every measure in
// t.Measures gets its per-k table in old.MeasureRanks (which must hold
// one) patched into MeasureRanks. Every product is
// copy-on-write — fresh top-level storage sharing the untouched
// per-vertex entries with old, which stays fully usable — and identical
// to a BuildAll over g.
func PatchAll(g *graph.Graph, old *BuildProducts, t BuildTargets, affected []int32, workers int) *BuildProducts {
	p := newEgoPass(g, t, len(affected))
	if t.TSD {
		p.tsd = &TSDIndex{
			g:     g,
			edges: slices.Clone(old.TSD.edges),
			mv:    slices.Clone(old.TSD.mv),
			vtCum: slices.Clone(old.TSD.vtCum),
		}
	}
	if t.GCT {
		p.gct = &GCTIndex{g: g, verts: slices.Clone(old.GCT.verts)}
	}
	p.run(len(affected), workers, func(slot int) int32 { return affected[slot] })

	out := &BuildProducts{TSD: p.tsd, GCT: p.gct}
	for m, vecs := range p.vecs {
		if out.MeasureRanks == nil {
			out.MeasureRanks = make(map[Measure][][]VertexScore, len(p.vecs))
		}
		out.MeasureRanks[m] = spliceRankings(old.MeasureRanks[m], affected, vecs)
	}
	return out
}

// egoPass is the one per-vertex worker body behind BuildAll and PatchAll:
// per vertex one ego extraction, at most one truss decomposition (shared
// by the TSD, GCT and truss-measure consumers), at most one core
// decomposition and one component labelling.
type egoPass struct {
	g   *graph.Graph
	tsd *TSDIndex // forests and ego edge counts, written at [v]
	gct *GCTIndex // supernode structures, written at [v]
	// vecs holds each requested measure's all-k score vectors, written at
	// the vertex's slot: v itself over all vertices, its position in the
	// vertex list otherwise.
	vecs map[Measure][][]int32
}

func newEgoPass(g *graph.Graph, t BuildTargets, slots int) *egoPass {
	p := &egoPass{g: g}
	for _, m := range t.Measures {
		if p.vecs == nil {
			p.vecs = make(map[Measure][][]int32, len(t.Measures))
		}
		p.vecs[m.Normalize()] = make([][]int32, slots)
	}
	return p
}

// passScratch is one worker's extraction/decomposition scratch, reused
// across the vertices it handles.
type passScratch struct {
	es   ego.Scratch
	ts   truss.Scratch
	ks   kcore.Scratch
	cs   compScratch
	allk []int
}

// run walks slots 0..count-1 (vertexAt maps a slot to its vertex) in
// blocks handed out to `workers` goroutines (0 or negative =
// GOMAXPROCS). Workers write disjoint slots, so the result does not
// depend on the schedule.
func (p *egoPass) run(count, workers int, vertexAt func(slot int) int32) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Blocks of 256 keep hand-off contention negligible on full builds;
	// a short patch list is split evenly instead so every worker helps.
	block := min(256, max(1, (count+workers-1)/workers))
	blocks := make(chan int, workers) // one queued block per worker keeps the feeder ahead
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s passScratch
			for lo := range blocks {
				for slot := lo; slot < min(lo+block, count); slot++ {
					p.vertex(&s, vertexAt(slot), slot)
				}
			}
		}()
	}
	for lo := 0; lo < count; lo += block {
		blocks <- lo
	}
	close(blocks)
	wg.Wait()
}

// vertex derives every requested structure of v from one extraction.
// It overwrites v's entries outright, so the same body serves fresh
// builds and copy-on-write patches alike.
func (p *egoPass) vertex(s *passScratch, v int32, slot int) {
	net := ego.ExtractOneInto(&s.es, p.g, v)
	if p.tsd != nil {
		p.tsd.mv[v] = int32(net.G.M())
	}
	if net.G.M() == 0 {
		// No triangles through v: every consumer records "no structure"
		// (the measure slots are fresh, hence already nil).
		if p.tsd != nil {
			p.tsd.edges[v], p.tsd.vtCum[v] = nil, nil
		}
		if p.gct != nil {
			p.gct.verts[v] = gctVertex{}
		}
		return
	}
	trussVec := p.vecs[MeasureTruss]
	if p.tsd != nil || p.gct != nil || trussVec != nil {
		tau := s.ts.DecomposeInto(net.G)
		if p.tsd != nil {
			p.tsd.edges[v] = maxSpanningForest(net.G, tau)
			p.tsd.vtCum[v] = cumulativeVertexTrussness(net.G, tau)
		}
		if p.gct != nil {
			p.gct.verts[v] = buildGCTVertex(net.G, tau)
		}
		if trussVec != nil {
			s.allk = trussAllK(&s.ts, net.G, tau, s.allk)
			trussVec[slot] = copyAllK(s.allk)
		}
	}
	if compVec := p.vecs[MeasureComponent]; compVec != nil {
		s.allk = compAllK(&s.cs, net.G, s.allk)
		compVec[slot] = copyAllK(s.allk)
	}
	if coreVec := p.vecs[MeasureCore]; coreVec != nil {
		s.allk = coreAllK(&s.ks, net.G, s.allk)
		coreVec[slot] = copyAllK(s.allk)
	}
}

// copyAllK snapshots a scratch-owned all-k vector (indexed by k, entries
// 0 and 1 unused) so it survives the worker's next vertex.
func copyAllK(allk []int) []int32 {
	if len(allk) == 0 {
		return nil
	}
	out := make([]int32, len(allk))
	for i, s := range allk {
		out[i] = int32(s)
	}
	return out
}

// assembleMeasureRanks shapes the per-vertex measure vectors (indexed by
// vertex) into per-k rankings: minimum table length 3, empty entries
// nil, canonical order per k. Each vector ends at its vertex's largest
// scoring k, so the table ends at the largest k any vertex scores at.
func assembleMeasureRanks(vecs [][]int32) [][]VertexScore {
	perK := make([][]VertexScore, 3)
	for v, vec := range vecs {
		for len(perK) < len(vec) {
			perK = append(perK, nil)
		}
		for k := 2; k < len(vec); k++ {
			if s := vec[k]; s > 0 {
				perK[k] = append(perK[k], VertexScore{V: int32(v), Score: int(s)})
			}
		}
	}
	for k := 2; k < len(perK); k++ {
		sortAnswer(perK[k])
	}
	return perK
}
