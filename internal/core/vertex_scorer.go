package core

import (
	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
	"trussdiv/internal/truss"
)

// VertexScorer is the allocation-free per-vertex scoring pipeline: one
// ego-extraction scratch plus the decomposition scratch of its measure,
// reused across calls so a steady-state Score costs zero allocations.
// It computes exactly what the naive models compute (the truss Algorithm
// 2, the baseline Comp-Div / Core-Div models) — the conformance and
// allocation suites pin both.
//
// A VertexScorer is NOT safe for concurrent use: each scan worker owns
// exactly one (see DESIGN.md "Scratch ownership contract"). For a
// shared, concurrency-safe scorer use a Scorer, which pools
// VertexScorers per call.
type VertexScorer struct {
	g *graph.Graph
	m Measure

	ego  ego.Scratch
	tr   truss.Scratch
	kc   kcore.Scratch
	cc   compScratch
	allk []int
}

// NewVertexScorer returns a single-worker scorer computing measure m
// over g.
func NewVertexScorer(g *graph.Graph, m Measure) *VertexScorer {
	return &VertexScorer{g: g, m: m.Normalize()}
}

// Graph returns the underlying graph.
func (s *VertexScorer) Graph() *graph.Graph { return s.g }

// Measure returns the measure this scorer computes.
func (s *VertexScorer) Measure() Measure { return s.m }

// Score returns score(v) w.r.t. threshold k under the scorer's measure;
// k = 0 returns the parameter-free score, from the same scratch
// ScoresAllK fills.
func (s *VertexScorer) Score(v int32, k int32) int {
	if k == 0 {
		return pfreeScore(s.ScoresAllK(v))
	}
	net := ego.ExtractOneInto(&s.ego, s.g, v)
	switch s.m {
	case MeasureComponent:
		if len(net.Verts) == 0 {
			return 0
		}
		count := s.cc.label(net.G)
		score := 0
		for _, sz := range s.cc.sizes[:count] {
			if sz >= k {
				score++
			}
		}
		return score
	case MeasureCore:
		if net.G.M() == 0 {
			return 0
		}
		core := s.kc.DecomposeInto(net.G)
		return s.kc.CountComponents(net.G, core, k)
	default:
		if net.G.M() == 0 {
			return 0
		}
		tau := s.tr.DecomposeInto(net.G)
		return s.tr.CountComponents(net.G, tau, k)
	}
}

// Contexts returns the social contexts of v w.r.t. k as global vertex
// sets: canonical group order (by first member), members ascending. Nil
// when no context qualifies — even when the ego-network has edges — the
// same "no contexts" every index engine reports. k = 0 returns the
// parameter-free contexts: those at v's discriminating level, found by one
// all-k probe first. The returned groups are freshly allocated (they
// escape the scratch); the transients are not.
func (s *VertexScorer) Contexts(v int32, k int32) [][]int32 {
	if k == 0 {
		if k = pfreeLevel(s.ScoresAllK(v)); k == 0 {
			return nil
		}
	}
	net := ego.ExtractOneInto(&s.ego, s.g, v)
	var local [][]int32
	switch s.m {
	case MeasureComponent:
		return s.compContexts(net, k)
	case MeasureCore:
		if net.G.M() == 0 {
			return nil
		}
		local = s.kc.Components(net.G, s.kc.DecomposeInto(net.G), k)
	default:
		if net.G.M() == 0 {
			return nil
		}
		local = s.tr.Components(net.G, s.tr.DecomposeInto(net.G), k)
	}
	if len(local) == 0 {
		return nil
	}
	return net.GlobalSets(local)
}

// compContexts is the component measure's contexts: the size->=k
// components of the ego-network in label order (ascending first member),
// already in global IDs — the Comp-Div model's exact output, flat-backed.
func (s *VertexScorer) compContexts(net *ego.Network, k int32) [][]int32 {
	if len(net.Verts) == 0 {
		return nil
	}
	count := s.cc.label(net.G)
	s.cc.qidx = growInt32(s.cc.qidx, count)
	total, nq := 0, 0
	for lbl, sz := range s.cc.sizes[:count] {
		if sz >= k {
			s.cc.qidx[lbl] = int32(nq)
			nq++
			total += int(sz)
		} else {
			s.cc.qidx[lbl] = -1
		}
	}
	if nq == 0 {
		return nil
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, 0, nq)
	for lbl, sz := range s.cc.sizes[:count] {
		if s.cc.qidx[lbl] >= 0 {
			start := len(flat)
			out = append(out, flat[start:start:start+int(sz)])
			flat = flat[:start+int(sz)]
		}
	}
	for lv, lbl := range s.cc.labels[:net.G.N()] {
		if qi := s.cc.qidx[lbl]; qi >= 0 {
			out[qi] = append(out[qi], net.Verts[lv])
		}
	}
	return out
}

// ScoresAllK computes score(v, k) for every k >= 2 from one ego
// decomposition: the returned slice is indexed by k (length maxK+1,
// entries 0 and 1 unused), owned by s, and valid only until the next
// call. nil when the ego-network has no edges or no threshold scores.
func (s *VertexScorer) ScoresAllK(v int32) []int {
	net := ego.ExtractOneInto(&s.ego, s.g, v)
	if net.G.M() == 0 {
		return nil
	}
	switch s.m {
	case MeasureComponent:
		s.allk = compAllK(&s.cc, net.G, s.allk)
	case MeasureCore:
		s.allk = coreAllK(&s.kc, net.G, s.allk)
	default:
		tau := s.tr.DecomposeInto(net.G)
		s.allk = trussAllK(&s.tr, net.G, tau, s.allk)
	}
	if len(s.allk) == 0 {
		return nil
	}
	return s.allk
}

// trussAllK fills dst[:0] with the truss measure's per-k score vector of
// the (already decomposed) local graph: dst[k] = k-truss component
// count, indexed 2..MaxTrussness. Empty when the decomposition reaches
// no threshold.
func trussAllK(ts *truss.Scratch, lg *graph.Graph, tau []int32, dst []int) []int {
	maxK := truss.MaxTrussness(tau)
	if maxK < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxK)+1)
	dst[0], dst[1] = 0, 0
	for k := int32(2); k <= maxK; k++ {
		dst[k] = ts.CountComponents(lg, tau, k)
	}
	return dst
}

// compAllK fills dst[:0] with the component measure's per-k vector: a
// size-s component counts toward every k <= s.
func compAllK(cs *compScratch, lg *graph.Graph, dst []int) []int {
	count := cs.label(lg)
	maxS := int32(0)
	for _, sz := range cs.sizes[:count] {
		if sz > maxS {
			maxS = sz
		}
	}
	if maxS < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxS)+1)
	for i := range dst {
		dst[i] = 0
	}
	for _, sz := range cs.sizes[:count] {
		for k := int32(2); k <= sz; k++ {
			dst[k]++
		}
	}
	return dst
}

// coreAllK fills dst[:0] with the core measure's per-k vector:
// dst[k] = maximal connected k-core count, indexed 2..degeneracy.
func coreAllK(ks *kcore.Scratch, lg *graph.Graph, dst []int) []int {
	core := ks.DecomposeInto(lg)
	maxC := kcore.Degeneracy(core)
	if maxC < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxC)+1)
	dst[0], dst[1] = 0, 0
	for k := int32(2); k <= maxC; k++ {
		dst[k] = ks.CountComponents(lg, core, k)
	}
	return dst
}

// compScratch labels the connected components of a local graph into
// recycled storage: labels[v] in 0..count-1 assigned in ascending order
// of each component's smallest vertex (the ConnectedComponents order),
// sizes[c] the member count.
type compScratch struct {
	labels []int32
	sizes  []int32
	stack  []int32
	qidx   []int32
}

func (s *compScratch) label(lg *graph.Graph) int {
	n := lg.N()
	s.labels = growInt32(s.labels, n)
	labels := s.labels
	for i := range labels {
		labels[i] = -1
	}
	s.sizes = s.sizes[:0]
	count := 0
	for v := int32(0); int(v) < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = int32(count)
		size := int32(1)
		s.stack = append(s.stack[:0], v)
		for len(s.stack) > 0 {
			u := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			for _, w := range lg.Neighbors(u) {
				if labels[w] < 0 {
					labels[w] = int32(count)
					size++
					s.stack = append(s.stack, w)
				}
			}
		}
		s.sizes = append(s.sizes, size)
		count++
	}
	return count
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
