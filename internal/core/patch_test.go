package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"trussdiv/internal/testutil"
)

// TestPatchHybridMatchesRebuild: the hybrid engine's table is the truss
// row of the per-measure rankings, patched like every other row. The
// patched table must equal a fresh build over the edited graph and agree
// score for score (Lemma 3) with the paper's own GCT construction over
// the edited graph — an oracle independent of the per-vertex pass.
func TestPatchHybridMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 30, 140, seed+700)
		targets := BuildTargets{GCT: true, Measures: []Measure{MeasureTruss}}
		old := BuildAll(g, targets, 1)
		ins, del := randomEdits(t, g, 4, 4, seed+701)
		newG, err := ApplyEdits(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		p := PatchAll(newG, old, targets, AffectedVertices(g, newG, ins, del), 0, nil)
		patched := wide(p.MeasureRanks[MeasureTruss])
		if fresh := wide(buildRanked(newG, MeasureTruss).Rankings()); !reflect.DeepEqual(patched, fresh) {
			t.Fatalf("seed %d: patched hybrid rankings diverge from rebuild\npatched: %v\nfresh:   %v",
				seed, patched, fresh)
		}
		oracle := BuildGCTIndex(newG)
		if !reflect.DeepEqual(p.GCT, oracle) {
			t.Fatalf("seed %d: patched GCT index diverges from BuildGCTIndex", seed)
		}
		for k := int32(2); int(k) < len(patched)+1; k++ {
			dense := make([]int, newG.N())
			if int(k) < len(patched) {
				for _, e := range patched[k] {
					dense[e.V] = e.Score
				}
			}
			for v := int32(0); int(v) < newG.N(); v++ {
				if got, want := dense[v], oracle.Score(v, k); got != want {
					t.Fatalf("seed %d: patched score(%d, %d) = %d, BuildGCTIndex says %d",
						seed, v, k, got, want)
				}
			}
		}
	}
}

func TestPatchHybridNoAffected(t *testing.T) {
	g := randomGraph(t, 20, 80, 31)
	targets := BuildTargets{Measures: []Measure{MeasureTruss}}
	old := BuildAll(g, targets, 1)
	patched := PatchAll(g, old, targets, nil, 0, nil).MeasureRanks[MeasureTruss]
	if !reflect.DeepEqual(patched, old.MeasureRanks[MeasureTruss]) {
		t.Fatal("empty affected set must reproduce the rankings unchanged")
	}
	for k, row := range patched {
		if row.Len() > 0 && !sameRow(row, old.MeasureRanks[MeasureTruss][k]) {
			t.Fatalf("level %d was copied, want it shared with the old table", k)
		}
	}
}

// spliceRankingsMap is the map-based splice spliceRankings replaced, kept
// as the reference it must agree with: row 0 and every level rebuilt entry
// by entry, with a map lookup per old entry.
func spliceRankingsMap(old [][]VertexScore, affected []int32, fresh [][]int32) [][]VertexScore {
	aff := make(map[int32]bool, len(affected))
	maxK := max(len(old)-1, 2)
	for i, v := range affected {
		aff[v] = true
		maxK = max(maxK, len(fresh[i])-1)
	}
	perK := make([][]VertexScore, maxK+1)
	for k := 0; k <= maxK; k++ {
		if k == 1 {
			continue
		}
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
		var merged []VertexScore
		i := 0
		for _, e := range oldList {
			if aff[e.V] {
				continue
			}
			for i < len(scored) && compareRanked(scored[i], e) < 0 {
				merged = append(merged, scored[i])
				i++
			}
			merged = append(merged, e)
		}
		if merged = append(merged, scored[i:]...); len(merged) > 0 {
			perK[k] = merged
		}
	}
	top := 2
	for k := 2; k <= maxK; k++ {
		if len(perK[k]) > 0 {
			top = k
		}
	}
	return perK[:top+1]
}

// wide returns t as per-k lists of VertexScore, nil for empty rankings:
// the shape BuildAll's tables had before they were chunked.
func wide(t RankTable) [][]VertexScore {
	out := make([][]VertexScore, len(t))
	for k, r := range t {
		if r.n > 0 {
			out[k] = r.AppendTo(nil, r.n)
		}
	}
	return out
}

// tableOf narrows per-k lists into a RankTable.
func tableOf(wide [][]VertexScore) RankTable {
	rows := make([][]RankPair, len(wide))
	for k, l := range wide {
		for _, e := range l {
			rows[k] = append(rows[k], RankPair{V: e.V, Score: int32(e.Score)})
		}
	}
	return NewRankTable(rows)
}

// cloneTable copies t down to its entries, sharing nothing with it.
func cloneTable(t RankTable) RankTable {
	out := make(RankTable, len(t))
	for k, row := range t {
		out[k].n = row.n
		for _, c := range row.chunks {
			out[k].chunks = append(out[k].chunks, slices.Clone(c))
		}
	}
	return out
}

// sameRow reports whether a and b are one ranking: the same chunk table.
func sameRow(a, b RankRow) bool {
	return len(a.chunks) > 0 && len(a.chunks) == len(b.chunks) && &a.chunks[0] == &b.chunks[0]
}

// sameChunk reports whether a and b are one chunk of storage.
func sameChunk(a, b []RankPair) bool { return len(a) == len(b) && &a[0] == &b[0] }

// checkChunkBounds requires every ranking of t to hold its entry count in
// non-empty chunks of at most 2*rankChunk entries, each at least rankChunk
// where a ranking has more than one.
func checkChunkBounds(t *testing.T, label string, table RankTable) {
	t.Helper()
	for k, row := range table {
		total := 0
		for i, c := range row.chunks {
			if len(c) == 0 || len(c) > 2*rankChunk || (len(row.chunks) > 1 && len(c) < rankChunk) {
				t.Fatalf("%s: level %d chunk %d of %d holds %d entries, want %d..%d",
					label, k, i, len(row.chunks), len(c), rankChunk, 2*rankChunk)
			}
			total += len(c)
		}
		if total != row.n {
			t.Fatalf("%s: level %d holds %d entries in its chunks, says %d", label, k, total, row.n)
		}
	}
}

// checkShared requires every chunk of old (row 0 included) that the splice had no reason
// to copy to be shared by got: a chunk whose neighbours and itself lose
// no entry, and near which no entry arrives — between the first entry of
// the chunk before it and the first entry of the chunk two after it (a
// rewritten neighbour may absorb a chunk only when it falls below
// rankChunk entries). An affected vertex whose score at k did not move
// neither leaves nor arrives.
func checkShared(t *testing.T, label string, old, got RankTable, affected []int32, fresh [][]int32) {
	t.Helper()
	for k := range min(len(old), len(got)) {
		chunks := old[k].chunks
		oldScore := map[int32]int32{} // the affected vertices' scores in old[k]
		leaves := make([]bool, len(chunks))
		for c, ch := range chunks {
			for _, e := range ch {
				i, ok := slices.BinarySearch(affected, e.V)
				if !ok {
					continue
				}
				oldScore[e.V] = e.Score
				if k >= len(fresh[i]) || fresh[i][k] != e.Score {
					leaves[c] = true
				}
			}
		}
		kept := map[*RankPair]int{}
		for _, c := range got[k].chunks {
			kept[&c[0]] = len(c)
		}
		for c := range chunks {
			lo, hi := max(c-1, 0), min(c+2, len(chunks))
			touched := slices.Contains(leaves[lo:hi], true)
			for i, v := range affected {
				if f := fresh[i]; k < len(f) && f[k] > 0 && f[k] != oldScore[v] {
					e := RankPair{V: v, Score: f[k]}
					after := c == 0 || comparePairs(e, chunks[lo][0]) >= 0
					before := hi == len(chunks) || comparePairs(e, chunks[hi][0]) < 0
					touched = touched || (after && before)
				}
			}
			if !touched && kept[&chunks[c][0]] != len(chunks[c]) {
				t.Fatalf("%s: level %d chunk %d was copied, want it shared", label, k, c)
			}
		}
	}
}

// checkSplice runs spliceRankings and the map-based reference on one
// input, requires them to agree with each other and with want (unless
// nil), the result to keep the chunk bounds and share every chunk it had
// no reason to copy, and old to be left as it was, byte for byte. It
// returns the spliced table.
func checkSplice(t *testing.T, label string, old RankTable, affected []int32, fresh [][]int32, n int, want [][]VertexScore) RankTable {
	t.Helper()
	before := cloneTable(old)
	got := spliceRankings(old, affected, fresh)
	gotW := wide(got)
	if ref := spliceRankingsMap(wide(old), affected, fresh); !reflect.DeepEqual(gotW, ref) {
		t.Fatalf("%s: splice diverges from the map-based reference\n got %v\n ref %v", label, gotW, ref)
	}
	if want != nil && !reflect.DeepEqual(gotW, want) {
		t.Fatalf("%s: splice diverges from the expected table\n got %v\nwant %v", label, gotW, want)
	}
	if !reflect.DeepEqual(old, before) {
		t.Fatalf("%s: splice wrote into the old table", label)
	}
	checkChunkBounds(t, label, got)
	checkShared(t, label, old, got, affected, fresh)
	return got
}

// TestSpliceRankingsEdgeCases pins the ranking splice on hand-made tables
// (fresh entries above and below every old one, an affected vertex absent
// from a level, a level that empties to nil, the table trimmed to its new
// maximum k, an unchanged level shared with the old table) and on patch
// passes over random graphs against BuildAll, always agreeing with the
// map-based reference and never writing the old table.
func TestSpliceRankingsEdgeCases(t *testing.T) {
	vs := func(pairs ...int) []VertexScore {
		var out []VertexScore
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, VertexScore{V: int32(pairs[i]), Score: pairs[i+1]})
		}
		return out
	}
	// Like every table a measure gives, old nests: a vertex listed at
	// k >= 3 is listed at k-1 too.
	oldW := [][]VertexScore{nil, nil,
		vs(1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 6, 1),
		vs(2, 2, 6, 1),
		vs(6, 1),
	}
	old := tableOf(oldW)
	// Vertex 0 is absent from every old level and enters k = 2 above all
	// entries; vertex 7 enters it below all of them; vertex 6 leaves
	// every level, so k = 4 empties and the table shrinks to k = 3.
	checkSplice(t, "enter above/below, empty level, trim", old,
		[]int32{0, 6, 7}, [][]int32{{0, 0, 9}, {0, 0, 0, 0, 0}, {0, 0, 1}}, 8,
		[][]VertexScore{nil, nil, vs(0, 9, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 7, 1), vs(2, 2)})

	// Vertex 3 moves within k = 2 and keeps its k = 3 absence; vertex 2
	// keeps both of its scores. Levels 3 and 4 are unchanged: they are
	// old's own rankings.
	got := checkSplice(t, "unchanged levels shared", old,
		[]int32{2, 3}, [][]int32{{0, 0, 4, 2}, {0, 0, 6}}, 8,
		[][]VertexScore{nil, nil, vs(3, 6, 1, 5, 2, 4, 4, 2, 5, 1, 6, 1), vs(2, 2, 6, 1), vs(6, 1)})
	for k := 3; k <= 4; k++ {
		if !sameRow(got[k], old[k]) {
			t.Fatalf("level %d was copied, want it shared with the old table", k)
		}
	}
	if sameChunk(got[2].chunks[0], old[2].chunks[0]) {
		t.Fatal("the changed level 2 aliases the old table")
	}

	// An affected vertex absent from every level before and after leaves
	// the whole table shared; one that gains a level above the old
	// maximum grows it.
	got = checkSplice(t, "absent everywhere", old, []int32{9}, [][]int32{nil}, 10, oldW)
	for k := 2; k < len(old); k++ {
		if !sameRow(got[k], old[k]) {
			t.Fatalf("level %d was copied, want it shared with the old table", k)
		}
	}
	checkSplice(t, "grow past the old maximum", old, []int32{9}, [][]int32{{0, 0, 0, 0, 0, 0, 2}}, 10,
		[][]VertexScore{nil, nil, oldW[2], oldW[3], oldW[4], nil, vs(9, 2)})

	// Every entry leaves: all levels nil, the table at its minimum length.
	checkSplice(t, "table empties", old,
		[]int32{1, 2, 3, 4, 5, 6}, make([][]int32, 6), 8, [][]VertexScore{nil, nil, nil})

	// Patch passes: the fresh vectors of one PatchAll-shaped pass, spliced
	// into BuildAll's table of the old graph, must give BuildAll's table
	// of the edited graph.
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(t, 40, 200, seed+900)
		ms := AllMeasures()
		old := BuildAll(g, BuildTargets{Measures: ms}, 1).MeasureRanks
		ins, del := randomEdits(t, g, 4, 4, seed+901)
		newG, err := ApplyEdits(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		affected := AffectedVertices(g, newG, ins, del)
		p := newEgoPass(newG, BuildTargets{Measures: ms}, len(affected))
		p.run(len(affected), 1, nil, func(slot int) int32 { return affected[slot] })
		want := BuildAll(newG, BuildTargets{Measures: ms}, 1).MeasureRanks
		for _, m := range ms {
			checkSplice(t, fmt.Sprintf("seed %d %s", seed, m), old[m], affected, p.vecs[m], newG.N(), wide(want[m]))
		}
	}
}

// TestSpliceRankingsRandomized drives the splice over synthetic tables of
// thousands of entries per ranking — long enough for several chunks and
// for the searched path — through chained batches of random score moves
// and of shapes no small graph reaches: enough entries entering one chunk
// to split it past 2*rankChunk, enough leaving one, or the last one, to
// merge it below rankChunk, rankings born above the old maximum and the
// top ranking emptied and trimmed. Every result must equal the map-based reference
// and a fresh assembly of the per-vertex vectors, keep the chunk bounds,
// share every chunk it had no reason to copy, and leave the old table
// byte for byte as it was.
func TestSpliceRankingsRandomized(t *testing.T) {
	rng := testutil.Rand(t, 4100)
	const n = 10000
	// withPFree sets entry 0 of a vector to its parameter-free score, as
	// copyAllK does.
	withPFree := func(vec []int32) []int32 {
		allk := make([]int, len(vec))
		for k := 2; k < len(vec); k++ {
			allk[k] = int(vec[k])
		}
		if len(vec) > 0 {
			vec[0] = int32(pfreeScore(allk))
		}
		return vec
	}
	// vector draws a nested all-k vector: positive scores at k = 2..len-1.
	vector := func(length int) []int32 {
		if length < 3 {
			return nil
		}
		vec := make([]int32, length)
		for k := 2; k < length; k++ {
			vec[k] = 1 + rng.Int31n(6)
		}
		return withPFree(vec)
	}
	for trial := range 3 {
		maxLen := 6 + rng.Intn(4)
		vecs := make([][]int32, n)
		for v := range vecs {
			// Most odd vertices score nowhere, leaving room to enter.
			if v%2 == 0 || rng.Intn(4) == 0 {
				vecs[v] = vector(2 + rng.Intn(maxLen))
			}
		}
		table := assembleMeasureRanks(vecs)
		for batch, shape := range []string{"random", "split", "random", "merge", "merge last", "born", "trim", "random"} {
			label := fmt.Sprintf("trial %d batch %d (%s)", trial, batch, shape)
			var affected []int32
			var fresh [][]int32
			add := func(v int32, vec []int32) {
				affected = append(affected, v)
				fresh = append(fresh, vec)
			}
			level2 := table[2]
			switch shape {
			case "random":
				for _, v := range rng.Perm(n)[:60] {
					vec := vecs[v]
					switch rng.Intn(3) {
					case 0: // unchanged
					case 1: // one score moves, or the vector grows or shrinks by a level
						vec = slices.Clone(vec)
						switch {
						case len(vec) > 3 && rng.Intn(2) == 0:
							vec = withPFree(vec[:len(vec)-1])
						case len(vec) >= 3:
							k := 2 + rng.Intn(len(vec)-2)
							vec[k] = max(1, vec[k]+1-2*rng.Int31n(2))
							vec = withPFree(vec)
						default:
							vec = vector(3)
						}
					default:
						vec = vector(2 + rng.Intn(maxLen+2))
					}
					add(int32(v), vec)
				}
			case "split":
				// Vertices absent from k = 2 enter one chunk inside a
				// single score run, past its upper bound.
				var chunk []RankPair
				for _, c := range level2.chunks {
					if c[0].Score == c[len(c)-1].Score {
						chunk = c
						break
					}
				}
				want := 2*rankChunk + 1 - len(chunk) + rng.Intn(rankChunk)
				for v := chunk[0].V + 1; v < chunk[len(chunk)-1].V && len(affected) < want; v++ {
					if len(vecs[v]) < 3 {
						add(v, withPFree([]int32{0, 0, chunk[0].Score}))
					}
				}
				if len(chunk)+len(affected) <= 2*rankChunk {
					t.Fatalf("%s: only %d vertices can enter a chunk of %d", label, len(affected), len(chunk))
				}
			case "merge", "merge last":
				// All but a few of one chunk's vertices leave every level;
				// the last chunk has no next one to absorb it.
				c := level2.chunks[rng.Intn(len(level2.chunks)-1)]
				if shape == "merge last" {
					c = level2.chunks[len(level2.chunks)-1]
				}
				for _, e := range c[:len(c)-rankChunk/4] {
					add(e.V, nil)
				}
			case "born":
				add(int32(rng.Intn(n)), vector(len(table)+1))
			case "trim":
				// Every vertex at the top k drops it.
				top := len(table) - 1
				for _, c := range table[top].chunks {
					for _, e := range c {
						add(e.V, withPFree(slices.Clone(vecs[e.V][:top])))
					}
				}
			}
			// The splice takes the vertices ascending, fresh aligned.
			order := make(map[int32][]int32, len(affected))
			for i, v := range affected {
				order[v] = fresh[i]
			}
			affected = slices.Sorted(maps.Keys(order))
			fresh = fresh[:0]
			for _, v := range affected {
				fresh = append(fresh, order[v])
				vecs[v] = order[v]
			}
			got := checkSplice(t, label, table, affected, fresh, n, wide(assembleMeasureRanks(vecs)))
			switch {
			case shape == "split" && len(got[2].chunks) <= len(level2.chunks):
				t.Fatalf("%s: k = 2 went from %d to %d chunks, want a split", label, len(level2.chunks), len(got[2].chunks))
			case strings.HasPrefix(shape, "merge") && len(got[2].chunks) >= len(level2.chunks):
				t.Fatalf("%s: k = 2 went from %d to %d chunks, want a merge", label, len(level2.chunks), len(got[2].chunks))
			case shape == "born" && len(got) != len(table)+1:
				t.Fatalf("%s: table went from %d to %d levels, want one born", label, len(table), len(got))
			case shape == "trim" && len(got) != len(table)-1:
				t.Fatalf("%s: table went from %d to %d levels, want the top one trimmed", label, len(table), len(got))
			}
			table = got
		}
	}
}
