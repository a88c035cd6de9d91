package core

import (
	"slices"
	"sort"
)

// Ranking tables. A measure's table holds one canonical ranking per
// threshold k, and the parameter-free ranking at index 0: the vertices
// with a positive score, by score descending then vertex ascending. Each
// ranking is cut into chunks of
// (vertex, score) int32 pairs — the pairs the index store lays out — and
// reached through a chunk table, so a warm open serves a ranking as views
// of the store's flat row, a query widens only the entries it returns,
// and a patch (spliceRankings) replaces only the chunks an edit batch
// touches, sharing every other chunk and every unchanged ranking with
// the table it repairs. No chunk is written once its table is published.

// RankPair is one ranking entry at its stored width.
type RankPair struct {
	V     int32
	Score int32
}

// rankChunk fixes the chunk bounds: a ranking cut into more than one
// chunk keeps every chunk between rankChunk and 2*rankChunk entries, and
// cutting aims at 1.5*rankChunk so a chunk absorbs many insertions or
// removals before it splits or merges. Smaller chunks copy less per
// changed entry, but every changed ranking copies its whole chunk table,
// which grows with the ranking. On gowalla-sim with 8+8 edit batches
// (2 vCPUs), Apply took the same time at 32, 64, 128 and 256 and
// allocated 2.57, 2.56, 2.62 and 2.73 MB; the splice of one 8+8 batch
// allocated 2.67x, 1.75x, 1.40x and 1.41x as much on a graph padded with
// nine copies of itself (its chunk tables ten times as long).
const rankChunk = 128

// RankRow is one ranking: n entries in canonical order, held in chunks.
// The zero RankRow is the empty ranking.
type RankRow struct {
	chunks [][]RankPair
	n      int
}

// RankTable is one measure's rankings indexed by k: entry 0 is the
// parameter-free ranking, entry 1 is empty, and the table ends at the
// largest k any vertex scores at (minimum length 3).
type RankTable []RankRow

// Len returns the number of entries.
func (r RankRow) Len() int { return r.n }

// Chunks returns the chunks holding the entries, in order. They alias the
// table's storage, which may be a mapped index file: never write them.
func (r RankRow) Chunks() [][]RankPair { return r.chunks }

// AppendTo appends the first min(count, r.Len()) entries to dst, widened.
func (r RankRow) AppendTo(dst []VertexScore, count int) []VertexScore {
	for _, c := range r.chunks {
		if count <= 0 {
			break
		}
		for _, e := range c[:min(count, len(c))] {
			dst = append(dst, VertexScore{V: e.V, Score: int(e.Score)})
		}
		count -= len(c)
	}
	return dst
}

// NewRankTable returns the table whose ranking at k is rows[k], each
// canonically ordered; its chunks are cut out of the rows without
// copying, so the rows must not change while the table is in use. The
// table has at least 3 entries.
func NewRankTable(rows [][]RankPair) RankTable {
	t := make(RankTable, max(len(rows), 3))
	for k, row := range rows {
		t[k] = rowOf(row)
	}
	return t
}

// rowOf returns the ranking of flat's entries, its chunks cut out of flat
// without copying.
func rowOf(flat []RankPair) RankRow {
	var r RankRow
	if len(flat) > 0 {
		r.appendCut(flat)
	}
	return r
}

// appendChunk appends the non-empty chunk c.
func (r *RankRow) appendChunk(c []RankPair) {
	r.chunks = append(r.chunks, c)
	r.n += len(c)
}

// appendCut cuts the non-empty buf into chunks of near-equal length and
// appends them as views of buf. A buf of rankChunk or more entries gives
// chunks of rankChunk to 2*rankChunk entries (at most 1.5*rankChunk where
// there are several); a shorter one gives one chunk.
func (r *RankRow) appendCut(buf []RankPair) {
	const target = rankChunk + rankChunk/2
	n := len(buf)
	count := max(1, min(n/rankChunk, (n+target-1)/target))
	for i := range count {
		lo, hi := i*n/count, (i+1)*n/count
		r.appendChunk(buf[lo:hi:hi])
	}
}

// comparePairs orders ranking entries canonically: score descending, then
// vertex ascending.
func comparePairs(a, b RankPair) int {
	switch {
	case a.Score != b.Score:
		return int(b.Score) - int(a.Score)
	case a.V < b.V:
		return -1
	case a.V > b.V:
		return 1
	}
	return 0
}

// rankPos is the position of an entry in a RankRow: chunk c, offset o.
type rankPos struct{ c, o int }

// at returns the entry at p.
func (r RankRow) at(p rankPos) RankPair { return r.chunks[p.c][p.o] }

// search returns the position of the first entry not before e in
// canonical order — in the last chunk whose first entry is not after e,
// else at the start of the next — and {len(chunks), 0} when every entry
// is before e.
func (r RankRow) search(e RankPair) rankPos {
	c := sort.Search(len(r.chunks), func(i int) bool { return comparePairs(r.chunks[i][0], e) > 0 }) - 1
	if c < 0 {
		return rankPos{}
	}
	if o, _ := slices.BinarySearchFunc(r.chunks[c], e, comparePairs); o < len(r.chunks[c]) {
		return rankPos{c, o}
	}
	return rankPos{c + 1, 0}
}

// find returns the position of entry e, if r holds it.
func (r RankRow) find(e RankPair) (rankPos, bool) {
	p := r.search(e)
	return p, p.c < len(r.chunks) && r.at(p) == e
}
