package core

import "trussdiv/internal/graph"

// In-place repair of the per-k ranking tables after an edit batch. The
// rankings are global orderings, but every entry is a per-vertex score
// computed from that vertex's ego-network alone — so an edit batch can
// only move the vertices in AffectedVertices. Patching removes those
// vertices from each ranking, re-scores them against the edited graph,
// and merges them back in canonical order. The result is byte-identical
// to a fresh BuildAll over the edited graph at a cost proportional to
// copying the tables plus re-scoring the affected set, instead of
// re-scoring every vertex.

// PatchMeasureRankings derives measure m's per-k rankings for the edited
// graph g from the previous snapshot's rankings, re-scoring only the
// affected vertices (sorted, from AffectedVertices; one ego decomposition
// each). It is the ranking patcher of every measure, the hybrid engine's
// truss table included. The output matches BuildAll's table for m over g
// exactly: zero scores omitted, perK[k] in canonical order, nil for
// entries below k=2 and for empty lists, and the table trimmed to the
// true maximum k. old stays fully usable (copy-on-write).
func PatchMeasureRankings(g *graph.Graph, m Measure, old [][]VertexScore, affected []int32) [][]VertexScore {
	aff := make(map[int32]bool, len(affected))
	freshScores := make(map[int32][]int, len(affected))
	maxK := int32(len(old)) - 1
	if maxK < 2 {
		maxK = 2
	}
	scorer := NewVertexScorer(g, m)
	for _, v := range affected {
		aff[v] = true
		// ScoresAllK hands back scratch-owned storage; copy before the
		// next iteration reuses it.
		s := append([]int(nil), scorer.ScoresAllK(v)...)
		freshScores[v] = s
		if top := int32(len(s)) - 1; top > maxK {
			maxK = top
		}
	}
	perK := make([][]VertexScore, maxK+1)
	for k := int32(2); k <= maxK; k++ {
		var oldList []VertexScore
		if int(k) < len(old) {
			oldList = old[k]
		}
		var fresh []VertexScore
		for _, v := range affected {
			if s := freshScores[v]; int(k) < len(s) && s[k] > 0 {
				fresh = append(fresh, VertexScore{V: v, Score: s[k]})
			}
		}
		sortAnswer(fresh)
		// BuildAll leaves empty lists nil; mirror that so patched tables
		// are indistinguishable from built ones.
		if merged := mergeRanked(oldList, fresh, aff); len(merged) > 0 {
			perK[k] = merged
		}
	}
	// An affected vertex may have held the only entries at the top ks;
	// trim the table to the true maximum exactly as a fresh build sizes it.
	top := int32(2)
	for k := int32(2); k <= maxK; k++ {
		if len(perK[k]) > 0 {
			top = k
		}
	}
	return perK[:top+1]
}

// mergeRanked merges the surviving old entries (old minus the affected
// vertices, already in canonical order) with the freshly re-scored ones
// (also canonical) into one canonically ordered list: score descending,
// vertex ascending. The result never aliases either input.
func mergeRanked(oldList, fresh []VertexScore, aff map[int32]bool) []VertexScore {
	out := make([]VertexScore, 0, len(oldList)+len(fresh))
	ranksBefore := func(a, b VertexScore) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.V < b.V
	}
	i := 0
	for _, e := range oldList {
		if aff[e.V] {
			continue
		}
		for i < len(fresh) && ranksBefore(fresh[i], e) {
			out = append(out, fresh[i])
			i++
		}
		out = append(out, e)
	}
	return append(out, fresh[i:]...)
}
