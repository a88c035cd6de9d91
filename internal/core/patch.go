package core

// In-place repair of the per-k ranking tables after an edit batch. The
// rankings are global orderings, but every entry is a per-vertex score
// computed from that vertex's ego-network alone — so an edit batch can
// only move the vertices in AffectedVertices. PatchAll re-scores those
// vertices in its one per-vertex pass; splicing removes them from each
// ranking and merges their fresh scores back in canonical order. The
// result is identical to a fresh BuildAll over the edited graph at a
// cost proportional to copying the tables plus re-scoring the affected
// set, instead of re-scoring every vertex.

// spliceRankings derives one measure's per-k rankings for the edited
// graph from the previous table old and the affected vertices' fresh
// all-k vectors (aligned with affected). The output matches BuildAll's
// table exactly: zero scores omitted, perK[k] in canonical order, nil
// for entries below k=2 and for empty lists, and the table trimmed to
// the true maximum k. old stays fully usable (copy-on-write).
func spliceRankings(old [][]VertexScore, affected []int32, fresh [][]int32) [][]VertexScore {
	aff := make(map[int32]bool, len(affected))
	maxK := max(len(old)-1, 2)
	for i, v := range affected {
		aff[v] = true
		maxK = max(maxK, len(fresh[i])-1)
	}
	perK := make([][]VertexScore, maxK+1)
	for k := 2; k <= maxK; k++ {
		var oldList []VertexScore
		if k < len(old) {
			oldList = old[k]
		}
		var scored []VertexScore
		for i, v := range affected {
			if s := fresh[i]; k < len(s) && s[k] > 0 {
				scored = append(scored, VertexScore{V: v, Score: int(s[k])})
			}
		}
		sortAnswer(scored)
		// BuildAll leaves empty lists nil; mirror that so patched tables
		// are indistinguishable from built ones.
		if merged := mergeRanked(oldList, scored, aff); len(merged) > 0 {
			perK[k] = merged
		}
	}
	// An affected vertex may have held the only entries at the top ks;
	// trim the table to the true maximum exactly as a fresh build sizes it.
	top := 2
	for k := 2; k <= maxK; k++ {
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
