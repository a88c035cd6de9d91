package core

import (
	"runtime"
	"sync"

	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
	"trussdiv/internal/truss"
)

// Single-pass multi-structure construction. Every accelerator this
// package builds — the TSD forests, the GCT supernode structures, and the
// per-measure per-k rankings — starts from the same two per-vertex
// steps: extract the ego-network and decompose it. Building the
// structures one at a time repeats those steps once per structure;
// BuildAll walks each vertex exactly once and feeds the shared
// extraction (and, for the truss-derived structures, the shared
// decomposition) to every requested consumer, so preparing N structures
// pays for one extraction pass instead of N. It is the only builder of
// the ranking tables.

// BuildTargets selects which structures one BuildAll pass produces.
type BuildTargets struct {
	// TSD requests the per-vertex maximum spanning forests (BuildTSDIndex).
	TSD bool
	// GCT requests the compressed supernode structures (BuildGCTIndex).
	GCT bool
	// Measures requests the per-k ranking table of each named measure.
	// The truss table is read straight off the shared decomposition: by
	// Lemma 3 the supernode/superedge count N_k - M_k a GCT index scores
	// with equals the k-truss component count, so it is exactly the
	// hybrid engine's table.
	Measures []Measure
}

// BuildProducts carries the structures one BuildAll pass produced;
// fields for unrequested targets stay zero.
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
// assembled products are byte-identical to the dedicated builders'
// regardless of worker count.
func BuildAll(g *graph.Graph, t BuildTargets, workers int) *BuildProducts {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	p := &BuildProducts{}

	var tsd *TSDIndex
	if t.TSD {
		tsd = &TSDIndex{
			g:     g,
			edges: make([][]TSDEdge, n),
			mv:    make([]int32, n),
			vtCum: make([][]int32, n),
		}
	}
	var gct *GCTIndex
	if t.GCT {
		gct = &GCTIndex{g: g, verts: make([]gctVertex, n)}
	}
	// Per-vertex all-k score vectors of each requested measure.
	var trussVec, compVec, coreVec [][]int32
	for _, m := range t.Measures {
		switch m.Normalize() {
		case MeasureTruss:
			trussVec = make([][]int32, n)
		case MeasureComponent:
			compVec = make([][]int32, n)
		case MeasureCore:
			coreVec = make([][]int32, n)
		}
	}
	needTruss := tsd != nil || gct != nil || trussVec != nil

	const block = 256
	blocks := make(chan int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var es ego.Scratch // per-worker scratch, reused across vertices
			var ts truss.Scratch
			var ks kcore.Scratch
			var cs compScratch
			var allk []int
			for lo := range blocks {
				hi := lo + block
				if hi > int32(n) {
					hi = int32(n)
				}
				for v := lo; v < hi; v++ {
					net := ego.ExtractOneInto(&es, g, v)
					if tsd != nil {
						tsd.mv[v] = int32(net.G.M())
					}
					if net.G.M() == 0 {
						// No triangles through v: every consumer records
						// "no structure" for it, exactly as the dedicated
						// builders do.
						continue
					}
					if needTruss {
						tau := ts.DecomposeInto(net.G)
						if tsd != nil {
							tsd.edges[v] = maxSpanningForest(net.G, tau)
							tsd.vtCum[v] = cumulativeVertexTrussness(net.G, tau)
						}
						if gct != nil {
							gct.verts[v] = buildGCTVertex(net.G, tau)
						}
						if trussVec != nil {
							allk = trussAllK(&ts, net.G, tau, allk)
							trussVec[v] = copyAllK(allk)
						}
					}
					if compVec != nil {
						allk = compAllK(&cs, net.G, allk)
						compVec[v] = copyAllK(allk)
					}
					if coreVec != nil {
						allk = coreAllK(&ks, net.G, allk)
						coreVec[v] = copyAllK(allk)
					}
				}
			}
		}()
	}
	for lo := int32(0); lo < int32(n); lo += block {
		blocks <- lo
	}
	close(blocks)
	wg.Wait()

	p.TSD = tsd
	p.GCT = gct
	for m, vecs := range map[Measure][][]int32{
		MeasureTruss: trussVec, MeasureComponent: compVec, MeasureCore: coreVec,
	} {
		if vecs == nil {
			continue
		}
		if p.MeasureRanks == nil {
			p.MeasureRanks = make(map[Measure][][]VertexScore, len(t.Measures))
		}
		p.MeasureRanks[m] = assembleMeasureRanks(vecs, n)
	}
	return p
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

// assembleMeasureRanks shapes the per-vertex measure vectors into per-k
// rankings: minimum table length 3, empty entries nil, canonical order
// per k. Each vector ends at its vertex's largest scoring k, so the table
// ends at the largest k any vertex scores at.
func assembleMeasureRanks(vecs [][]int32, n int) [][]VertexScore {
	perK := make([][]VertexScore, 3)
	for v := int32(0); int(v) < n; v++ {
		vec := vecs[v]
		for len(perK) < len(vec) {
			perK = append(perK, nil)
		}
		for k := 2; k < len(vec); k++ {
			if s := vec[k]; s > 0 {
				perK[k] = append(perK[k], VertexScore{V: v, Score: int(s)})
			}
		}
	}
	for k := 2; k < len(perK); k++ {
		sortAnswer(perK[k])
	}
	return perK
}
