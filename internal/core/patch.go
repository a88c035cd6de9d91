package core

import "slices"

// In-place repair of the ranking tables after an edit batch. The
// rankings are global orderings, but every entry is a per-vertex score
// computed from that vertex's ego-network alone — so an edit batch can
// only move the vertices in AffectedVertices. PatchAll re-scores those
// vertices in its one per-vertex pass; splicing removes them from each
// ranking and merges their fresh scores back in canonical order. The
// result holds the entries a fresh BuildAll over the edited graph does.
// A ranking is copy-on-write: the splice finds the affected vertices'
// old entries by binary search, rewrites only the chunks that gain or
// lose an entry, splitting or merging them at their size bounds, and
// shares every other chunk, and every ranking the batch leaves as it
// was, with the old table. A patch
// therefore costs the affected set and the chunk tables of the rankings
// it moves, instead of re-scoring or copying every vertex.

// spliceRankings derives one measure's rankings for the edited graph from
// the previous table old and the affected vertices' fresh all-k vectors
// (aligned with affected, which is sorted ascending; entry 0 is the
// parameter-free score). The output holds BuildAll's entries exactly:
// zero scores omitted, each ranking in canonical order, row 1 empty, and
// the table trimmed to the true maximum k. old is never written, and
// stays fully usable.
//
// Every measure nests its contexts — a k-truss is a (k-1)-truss, a
// component of k vertices has k-1, a k-core is a (k-1)-core — so a vertex
// listed at k >= 3 is listed at k-1 too. The splice walks k upwards and
// stops looking for a vertex once a ranking of old lacks it. Row 0 does
// not nest with the per-k rows: it is spliced first, looking up every
// affected vertex.
func spliceRankings(old RankTable, affected []int32, fresh [][]int32) RankTable {
	maxK := max(len(old)-1, 2)
	for _, s := range fresh {
		maxK = max(maxK, len(s)-1)
	}
	out := make(RankTable, maxK+1)
	sp := tableSplice{fresh: fresh, old: make([]int32, len(affected))}
	top := 2
	for k := 0; k <= maxK; k++ {
		switch k {
		case 1:
			continue
		case 0, 2:
			// Rows 0 and 2 may list any affected vertex; a higher row
			// only one that row k-1 listed.
			for i := range sp.old {
				sp.old[i] = -1
			}
		}
		var row RankRow
		if k < len(old) {
			row = old[k]
		}
		sp.findOld(row, affected, k)
		sp.scored = sp.scored[:0]
		for i, v := range affected {
			if s := sp.freshAt(i, k); s > 0 && s != sp.old[i] {
				sp.scored = append(sp.scored, RankPair{V: v, Score: s})
			}
		}
		slices.SortFunc(sp.scored, comparePairs)
		if out[k] = sp.splice(row); out[k].n > 0 && k >= 2 {
			top = k
		}
	}
	// An affected vertex may have held the only entries at the top ks;
	// trim the table to the true maximum exactly as a fresh build sizes it.
	return out[:top+1]
}

// tableSplice is the splice state of one table, reused across its
// rankings.
type tableSplice struct {
	fresh [][]int32 // the affected vertices' fresh all-k vectors
	// old[i] is affected[i]'s score in the ranking last searched, 0 where
	// it is not listed (so is not listed at any higher k either).
	old    []int32
	hits   []rankPos  // the old entries that change, ascending
	scored []RankPair // the fresh entries that change, canonical
	scores []int32    // the distinct scores of the ranking, once needed
}

// freshAt returns affected[i]'s fresh score at k.
func (sp *tableSplice) freshAt(i, k int) int32 {
	if f := sp.fresh[i]; k < len(f) {
		return f[k]
	}
	return 0
}

// findOld sets sp.old to the affected vertices' scores in row, the k
// ranking of old, and sp.hits to the positions of those that differ from
// the fresh scores. Each vertex the previous ranking listed is first
// looked up at its fresh score, where most entries stay; one not found
// there is looked up at each of the ranking's distinct scores.
func (sp *tableSplice) findOld(row RankRow, affected []int32, k int) {
	sp.hits = sp.hits[:0]
	sp.scores = sp.scores[:0]
	for i, v := range affected {
		if sp.old[i] == 0 {
			continue
		}
		sp.old[i] = 0
		s := sp.freshAt(i, k)
		if s > 0 {
			if _, ok := row.find(RankPair{V: v, Score: s}); ok {
				sp.old[i] = s
				continue
			}
		}
		if len(sp.scores) == 0 {
			sp.scores = row.appendScores(sp.scores)
		}
		for _, old := range sp.scores {
			if old == s {
				continue
			}
			if p, ok := row.find(RankPair{V: v, Score: old}); ok {
				sp.hits = append(sp.hits, p)
				sp.old[i] = old
				break
			}
		}
	}
	slices.SortFunc(sp.hits, func(a, b rankPos) int {
		if a.c != b.c {
			return a.c - b.c
		}
		return a.o - b.o
	})
}

// appendScores appends the distinct scores of a non-empty ranking,
// descending: one search per score for the end of its run.
func (r RankRow) appendScores(scores []int32) []int32 {
	for p := (rankPos{}); p.c < len(r.chunks); {
		s := r.at(p).Score
		scores = append(scores, s)
		// Vertex -1 sorts before every entry scoring s-1, after every
		// entry scoring s.
		p = r.search(RankPair{V: -1, Score: s - 1})
	}
	return scores
}

// splice returns row without its entries at sp.hits and with sp.scored
// merged in: row itself when both are empty. Otherwise each chunk
// holding a hit or receiving a fresh entry is rewritten into new storage
// — a rewritten run shorter than rankChunk is carried into the next
// chunk, or at the end merged with the previous one, and a longer one is
// cut to the size bounds — and every other chunk is row's own.
func (sp *tableSplice) splice(row RankRow) RankRow {
	hits, scored := sp.hits, sp.scored
	if len(hits) == 0 && len(scored) == 0 {
		return row
	}
	if len(row.chunks) == 0 {
		return rowOf(slices.Clone(scored))
	}
	out := RankRow{chunks: make([][]RankPair, 0, len(row.chunks)+len(scored)/rankChunk+1)}
	var carry []RankPair
	for c, chunk := range row.chunks {
		// A fresh entry goes into the chunk whose entries it falls among
		// or after: before the next chunk's first entry.
		ins := len(scored)
		if c+1 < len(row.chunks) {
			next := row.chunks[c+1][0]
			ins = 0
			for ins < len(scored) && comparePairs(scored[ins], next) < 0 {
				ins++
			}
		}
		del := 0
		for del < len(hits) && hits[del].c == c {
			del++
		}
		if ins == 0 && del == 0 && len(carry) == 0 {
			out.appendChunk(chunk)
			continue
		}
		buf := make([]RankPair, 0, len(carry)+len(chunk)-del+ins)
		buf = append(buf, carry...)
		buf = mergeChunk(buf, chunk, hits[:del], scored[:ins])
		hits, scored, carry = hits[del:], scored[ins:], nil
		if len(buf) < rankChunk {
			carry = buf
			continue
		}
		out.appendCut(buf)
	}
	if len(carry) > 0 {
		if last := len(out.chunks) - 1; last >= 0 {
			prev := out.chunks[last]
			out.chunks, out.n = out.chunks[:last], out.n-len(prev)
			carry = append(append(make([]RankPair, 0, len(prev)+len(carry)), prev...), carry...)
		}
		out.appendCut(carry)
	}
	if out.n == 0 {
		return RankRow{}
	}
	return out
}

// mergeChunk appends chunk, without its entries at the offsets of hits
// (ascending), merged with ins (canonical) to buf. The surviving entries
// are copied in runs between the removed entries and the insertion
// points.
func mergeChunk(buf, chunk []RankPair, hits []rankPos, ins []RankPair) []RankPair {
	run := 0 // the first entry of chunk not yet emitted or skipped
	keepUntil := func(to int) {
		for len(hits) > 0 && hits[0].o < to {
			buf = append(buf, chunk[run:hits[0].o]...)
			run = hits[0].o + 1
			hits = hits[1:]
		}
		buf = append(buf, chunk[run:to]...)
		run = to
	}
	for _, e := range ins {
		at, _ := slices.BinarySearchFunc(chunk[run:], e, comparePairs)
		keepUntil(run + at)
		buf = append(buf, e)
	}
	keepUntil(len(chunk))
	return buf
}
