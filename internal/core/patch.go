package core

import "slices"

// In-place repair of the per-k ranking tables after an edit batch. The
// rankings are global orderings, but every entry is a per-vertex score
// computed from that vertex's ego-network alone — so an edit batch can
// only move the vertices in AffectedVertices. PatchAll re-scores those
// vertices in its one per-vertex pass; splicing removes them from each
// ranking and merges their fresh scores back in canonical order. The
// result is identical to a fresh BuildAll over the edited graph. The
// surviving entries are copied in bulk, as runs between the removed
// entries and the insertion points, and a level the batch leaves as it
// was is not copied at all, so a patch costs the affected set plus the
// levels it moves, instead of re-scoring every vertex.

// spliceRankings derives one measure's per-k rankings for the edited
// graph from the previous table old and the affected vertices' fresh
// all-k vectors (aligned with affected, which is sorted ascending).
// marked[v] is true exactly for the affected vertices. The output
// matches BuildAll's table exactly: zero scores omitted, perK[k] in
// canonical order, nil for entries below k=2 and for empty lists, and the
// table trimmed to the true maximum k. A level whose entries the batch
// did not change is old's own slice, shared: no table is ever written
// after it is built, so old stays fully usable (copy-on-write).
func spliceRankings(old [][]VertexScore, affected []int32, marked []bool, fresh [][]int32) [][]VertexScore {
	maxK := max(len(old)-1, 2)
	for _, s := range fresh {
		maxK = max(maxK, len(s)-1)
	}
	perK := make([][]VertexScore, maxK+1)
	var scored []VertexScore
	var hits []int
	top := 2
	for k := 2; k <= maxK; k++ {
		var oldList []VertexScore
		if k < len(old) {
			oldList = old[k]
		}
		scored = scored[:0]
		for i, v := range affected {
			if s := fresh[i]; k < len(s) && s[k] > 0 {
				scored = append(scored, VertexScore{V: v, Score: int(s[k])})
			}
		}
		sortAnswer(scored)
		hits = hits[:0]
		for j, e := range oldList {
			if marked[e.V] {
				hits = append(hits, j)
			}
		}
		if perK[k] = spliceLevel(oldList, hits, scored); perK[k] != nil {
			top = k
		}
	}
	// An affected vertex may have held the only entries at the top ks;
	// trim the table to the true maximum exactly as a fresh build sizes it.
	return perK[:top+1]
}

// spliceLevel is one level of spliceRankings: oldList minus its entries
// at the positions in hits (ascending: the affected vertices' old
// entries), merged with fresh (canonical: their new entries) into one
// canonically ordered list, or nil when that is empty, as BuildAll
// leaves empty lists. When fresh holds exactly the entries it replaces,
// the result is oldList itself; otherwise it is a new slice.
func spliceLevel(oldList []VertexScore, hits []int, fresh []VertexScore) []VertexScore {
	if len(hits) == len(fresh) {
		same := true
		for i, j := range hits {
			if oldList[j] != fresh[i] {
				same = false
				break
			}
		}
		if same && len(oldList) > 0 {
			return oldList
		}
	}
	size := len(oldList) - len(hits) + len(fresh)
	if size == 0 {
		return nil
	}
	out := make([]VertexScore, 0, size)
	run := 0 // the first old entry not yet emitted or skipped
	// keepUntil emits the surviving old entries before position to.
	keepUntil := func(to int) {
		for len(hits) > 0 && hits[0] < to {
			out = append(out, oldList[run:hits[0]]...)
			run = hits[0] + 1
			hits = hits[1:]
		}
		out = append(out, oldList[run:to]...)
		run = to
	}
	for _, e := range fresh {
		at, _ := slices.BinarySearchFunc(oldList[run:], e, compareRanked)
		keepUntil(run + at)
		out = append(out, e)
	}
	keepUntil(len(oldList))
	return out
}
