package core

import (
	"context"
	"maps"
	"slices"

	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
	"trussdiv/internal/par"
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
	// The truss table is read straight off the shared spanning forest: by
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
	// MeasureRanks holds each requested measure's ranking table (feed
	// NewRanked): the parameter-free ranking at 0 and the ranking at each
	// k >= 2, sorted by score descending then vertex ascending, zero
	// scores omitted, empty at 1, the table trimmed to the largest k any
	// vertex scores at (minimum length 3).
	MeasureRanks map[Measure]RankTable
}

// BuildAll builds every requested structure in one pass over the
// vertices, spread over `workers` goroutines (0 or negative =
// GOMAXPROCS). Each worker owns one extraction/decomposition scratch
// set and writes per-vertex results into disjoint slots, so the
// assembled products are identical for every worker count.
func BuildAll(g *graph.Graph, t BuildTargets, workers int) *BuildProducts {
	n := g.N()
	p := newEgoPass(g, t, n)
	if t.TSD {
		p.tsd = &TSDIndex{
			g:     g,
			edges: makePaged[[]TSDEdge](n),
			mv:    makePaged[int32](n),
			vtCum: makePaged[[]int32](n),
		}
	}
	if t.GCT {
		p.gct = &GCTIndex{g: g, verts: makePaged[gctVertex](n)}
	}
	p.run(n, workers, nil, func(slot int) int32 { return int32(slot) })

	out := &BuildProducts{TSD: p.tsd, GCT: p.gct}
	for m, vecs := range p.vecs {
		if out.MeasureRanks == nil {
			out.MeasureRanks = make(map[Measure]RankTable, len(p.vecs))
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
// one) patched into MeasureRanks; the tables are spliced side by side on
// `workers` goroutines. Every product is copy-on-write — fresh pages for
// the affected vertices' entries and fresh ranking chunks where they
// moved, sharing every other page, chunk and ranking with old, which
// stays fully usable — and holds what a BuildAll over g does. A non-nil
// scratch lends the pass its workers' extraction and decomposition
// storage and keeps it for the next pass, so a caller patching batch after batch allocates those
// per-vertex arrays once; nil gives the pass fresh storage.
func PatchAll(g *graph.Graph, old *BuildProducts, t BuildTargets, affected []int32, workers int, scratch *PassScratch) *BuildProducts {
	if scratch == nil {
		scratch = new(PassScratch)
	}
	p := newEgoPass(g, t, len(affected))
	if t.TSD {
		p.tsd = &TSDIndex{
			g:     g,
			edges: old.TSD.edges.cow(affected),
			mv:    old.TSD.mv.cow(affected),
			vtCum: old.TSD.vtCum.cow(affected),
		}
	}
	if t.GCT {
		p.gct = &GCTIndex{g: g, verts: old.GCT.verts.cow(affected)}
	}
	p.run(len(affected), workers, scratch, func(slot int) int32 { return affected[slot] })

	out := &BuildProducts{TSD: p.tsd, GCT: p.gct}
	if len(p.vecs) == 0 {
		return out
	}
	measures := slices.Collect(maps.Keys(p.vecs))
	tables := make([]RankTable, len(measures))
	// Each table is its own splice over read-only inputs, written to its
	// own slot, so the products do not depend on the schedule. The
	// background context never reports an error, so neither does For.
	_ = par.For(context.Background(), len(measures), workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m := measures[i]
			tables[i] = spliceRankings(old.MeasureRanks[m], affected, p.vecs[m])
		}
	})
	out.MeasureRanks = make(map[Measure]RankTable, len(measures))
	for i, m := range measures {
		out.MeasureRanks[m] = tables[i]
	}
	return out
}

// egoPass is the one per-vertex worker body behind BuildAll and PatchAll:
// per vertex one ego extraction, at most one truss decomposition and one
// maximum spanning forest over it (shared by the TSD, GCT and
// truss-measure consumers), at most one core decomposition with its own
// forest, and one component labelling.
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

// PassScratch holds the per-worker storage of an ego pass across passes
// (see PatchAll). The zero value is ready to use. It serves one pass at a
// time: a caller sharing it between goroutines must serialize its passes.
type PassScratch struct {
	workers []*passScratch
}

// passScratch is one worker's extraction/decomposition scratch, reused
// across the vertices it handles.
type passScratch struct {
	es   ego.Scratch
	ts   truss.Scratch
	ks   kcore.Scratch
	cs   compScratch
	fs   forestScratch
	allk []int
}

// run walks slots 0..count-1 (vertexAt maps a slot to its vertex) in
// blocks claimed by `workers` goroutines (0 or negative = GOMAXPROCS),
// each with its own scratch from s (nil = fresh). Workers write disjoint
// slots, so the result does not depend on the schedule.
func (p *egoPass) run(count, workers int, s *PassScratch, vertexAt func(slot int) int32) {
	workers = par.Workers(workers)
	// Blocks of 256 keep hand-off contention negligible on full builds;
	// a short patch list is split evenly instead so every worker helps.
	block := min(256, max(1, (count+workers-1)/workers))
	if s == nil {
		s = new(PassScratch)
	}
	for len(s.workers) < workers {
		s.workers = append(s.workers, new(passScratch))
	}
	// The background context never reports an error, so neither does For.
	_ = par.For(context.Background(), count, workers, block, func(w, lo, hi int) {
		for slot := lo; slot < hi; slot++ {
			p.vertex(s.workers[w], vertexAt(slot), slot)
		}
	})
}

// vertex derives every requested structure of v from one extraction.
// It overwrites v's entries outright, so the same body serves fresh
// builds and copy-on-write patches alike.
func (p *egoPass) vertex(s *passScratch, v int32, slot int) {
	net := ego.ExtractOneInto(&s.es, p.g, v)
	if p.tsd != nil {
		p.tsd.mv.set(v, int32(net.G.M()))
	}
	if net.G.M() == 0 {
		// No triangles through v: every consumer records "no structure"
		// (the measure slots are fresh, hence already nil).
		if p.tsd != nil {
			p.tsd.edges.set(v, nil)
			p.tsd.vtCum.set(v, nil)
		}
		if p.gct != nil {
			p.gct.verts.set(v, gctVertex{})
		}
		return
	}
	trussVec := p.vecs[MeasureTruss]
	if p.tsd != nil || p.gct != nil || trussVec != nil {
		tau := s.ts.DecomposeInto(net.G)
		forest, vt := s.fs.span(net.G, tau)
		if p.tsd != nil {
			p.tsd.edges.set(v, tsdForest(net.G, tau, forest))
			p.tsd.vtCum.set(v, cumulativeVertexTrussness(vt))
		}
		if p.gct != nil {
			p.gct.verts.set(v, buildGCTVertex(net.G, tau, forest, vt))
		}
		if trussVec != nil {
			s.allk = countAllK(forest, vt, tau, s.allk)
			trussVec[slot] = copyAllK(s.allk)
		}
	}
	if compVec := p.vecs[MeasureComponent]; compVec != nil {
		s.allk = compAllK(&s.cs, net.G, s.allk)
		compVec[slot] = copyAllK(s.allk)
	}
	if coreVec := p.vecs[MeasureCore]; coreVec != nil {
		s.allk = coreAllK(&s.ks, &s.fs, net.G, s.allk)
		coreVec[slot] = copyAllK(s.allk)
	}
}

// copyAllK snapshots a scratch-owned all-k vector (indexed by k, entry 1
// unused) so it survives the worker's next vertex, with the vertex's
// parameter-free score in entry 0: the row-0 score of its table.
func copyAllK(allk []int) []int32 {
	if len(allk) == 0 {
		return nil
	}
	out := make([]int32, len(allk))
	for i, s := range allk {
		out[i] = int32(s)
	}
	out[0] = int32(pfreeScore(allk))
	return out
}

// assembleMeasureRanks shapes the per-vertex measure vectors (indexed by
// vertex) into rankings: row 0 from each vector's parameter-free score,
// row k >= 2 from its score at k, minimum table length 3, canonical order
// per row. Each vector ends at its vertex's largest scoring k, so the
// table ends at the largest k any vertex scores at. Each ranking's chunks
// are cut out of one array of exactly its length.
func assembleMeasureRanks(vecs [][]int32) RankTable {
	counts := make([]int, 3)
	for _, vec := range vecs {
		for len(counts) < len(vec) {
			counts = append(counts, 0)
		}
		for k, s := range vec {
			if s > 0 {
				counts[k]++
			}
		}
	}
	rows := make([][]RankPair, len(counts))
	for k, c := range counts {
		if c > 0 {
			rows[k] = make([]RankPair, 0, c)
		}
	}
	for v, vec := range vecs {
		for k, s := range vec {
			if s > 0 {
				rows[k] = append(rows[k], RankPair{V: int32(v), Score: s})
			}
		}
	}
	for _, row := range rows {
		slices.SortFunc(row, comparePairs)
	}
	return NewRankTable(rows)
}
