package main

// The per-layer adapter. Every call into the program's packages below the
// trussdiv facade lives in this file, so a refactor of those packages
// breaks the traced run here and nowhere else; the end-to-end run never
// calls into this file.

import (
	"fmt"
	"time"

	"trussdiv"
	"trussdiv/internal/core"
	"trussdiv/internal/ego"
	"trussdiv/internal/kcore"
	"trussdiv/internal/truss"
)

// kernelCost is the time the per-vertex scan kernels took over a sample
// of vertices. Each stage runs over the whole sample and adds one kernel
// to the stage before it, so a kernel's cost is a difference of stages.
type kernelCost struct {
	vertices int
	extract  time.Duration // ego extraction alone
	truss    time.Duration // extraction + truss decomposition
	trussCnt time.Duration // ... + counting the k-truss components
	core     time.Duration // extraction + core decomposition
	coreCnt  time.Duration // ... + counting the k-core components
	comp     time.Duration // a whole component-measure score: extraction + labelling
}

func (k kernelCost) perVertex(d time.Duration) float64 {
	if k.vertices == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(k.vertices)
}

// scoreNs is the kernel cost of scoring one vertex under m.
func (k kernelCost) scoreNs(m trussdiv.Measure) float64 {
	switch m {
	case trussdiv.MeasureComponent:
		return k.perVertex(k.comp)
	case trussdiv.MeasureCore:
		return k.perVertex(k.coreCnt)
	}
	return k.perVertex(k.trussCnt)
}

func (k kernelCost) report(res *result) {
	res.set("scan.extract_ns_per_vertex", k.perVertex(k.extract))
	res.set("scan.decompose_truss_ns_per_vertex", k.perVertex(k.truss-k.extract))
	res.set("scan.decompose_core_ns_per_vertex", k.perVertex(k.core-k.extract))
	res.set("scan.label_comp_ns_per_vertex", k.perVertex(k.comp-k.extract))
	res.set("scan.count_ns_per_vertex", k.perVertex(k.trussCnt-k.truss))
}

// calibrateKernels runs every kernel stage over each vertex set at the
// set's threshold ks[i], recording one kernels span per set (request
// req+i) with one child span per stage.
func calibrateKernels(tr *tracer, req int64, g *trussdiv.Graph, sets [][]int32, ks []int32) kernelCost {
	var (
		cost kernelCost
		es   ego.Scratch
		ts   truss.Scratch
		kc   kcore.Scratch
	)
	comp := core.NewVertexScorer(g, trussdiv.MeasureComponent)
	for i, set := range sets {
		k := ks[i]
		root := tr.begin(req+int64(i), 0, "kernels")
		stage := func(name string, f func(v int32)) time.Duration {
			sp := tr.begin(root.req, root.id, name)
			for _, v := range set {
				f(v)
			}
			return tr.end(sp)
		}
		cost.vertices += len(set)
		// One untimed pass first: without it the first stage alone pays
		// for bringing the set's adjacency into cache and growing scratch.
		for _, v := range set {
			if net := ego.ExtractOneInto(&es, g, v); net.G.M() > 0 {
				ts.CountComponents(net.G, ts.DecomposeInto(net.G), k)
				kc.CountComponents(net.G, kc.DecomposeInto(net.G), k)
			}
			comp.Score(v, k)
		}
		cost.extract += stage("scan.extract", func(v int32) { ego.ExtractOneInto(&es, g, v) })
		cost.truss += stage("scan.extract+decompose.truss", func(v int32) {
			if net := ego.ExtractOneInto(&es, g, v); net.G.M() > 0 {
				ts.DecomposeInto(net.G)
			}
		})
		cost.trussCnt += stage("scan.extract+decompose.truss+count", func(v int32) {
			if net := ego.ExtractOneInto(&es, g, v); net.G.M() > 0 {
				ts.CountComponents(net.G, ts.DecomposeInto(net.G), k)
			}
		})
		cost.core += stage("scan.extract+decompose.core", func(v int32) {
			if net := ego.ExtractOneInto(&es, g, v); net.G.M() > 0 {
				kc.DecomposeInto(net.G)
			}
		})
		cost.coreCnt += stage("scan.extract+decompose.core+count", func(v int32) {
			if net := ego.ExtractOneInto(&es, g, v); net.G.M() > 0 {
				kc.CountComponents(net.G, kc.DecomposeInto(net.G), k)
			}
		})
		cost.comp += stage("scan.score.component", func(v int32) { comp.Score(v, k) })
		tr.end(root)
	}
	return cost
}

// applyCost is the replayed cost of Apply's sub-steps over a stream of
// edit batches.
type applyCost struct {
	edit, repair, rescore time.Duration
	affected              [][]int32 // per batch: the vertices it re-scored
}

// replayApply replays each batch's sub-steps along the same edit chain:
// the graph edit (core.ApplyEdits), the truss repair (truss.Repair, from
// a decomposition made untimed), and one all-k re-score per measure of
// the affected vertices (core.VertexScorer). Apply re-scores once per
// structure it patches, so the remainder apply.self_ms also carries the
// extra passes, the ranking splices and the snapshot install.
func replayApply(tr *tracer, g *trussdiv.Graph, batches []trussdiv.Updates) (applyCost, error) {
	var cost applyCost
	tau, sup := truss.DecomposeFull(g, 0)
	for b, u := range batches {
		req := writeReq(b)
		root := tr.begin(req, 0, "apply.replay")
		sp := tr.begin(req, root.id, "apply.graph_edit")
		next, err := core.ApplyEdits(g, u.Insert, u.Delete)
		cost.edit += tr.end(sp)
		if err != nil {
			return cost, fmt.Errorf("replay batch %d: %w", b, err)
		}
		sp = tr.begin(req, root.id, "apply.truss_repair")
		rr, repaired := truss.Repair(g, next, tau, sup, u.Insert, u.Delete, 0)
		cost.repair += tr.end(sp)
		affected := core.AffectedVertices(g, next, u.Insert, u.Delete)
		sp = tr.begin(req, root.id, "apply.rescore")
		for _, m := range trussdiv.AllMeasures() {
			s := core.NewVertexScorer(next, m)
			for _, v := range affected {
				s.ScoresAllK(v)
			}
		}
		cost.rescore += tr.end(sp)
		tr.end(root)
		cost.affected = append(cost.affected, affected)
		if repaired {
			tau, sup = rr.Tau, rr.Sup
		} else {
			tau, sup = truss.DecomposeFull(next, 0)
		}
		g = next
	}
	return cost, nil
}
