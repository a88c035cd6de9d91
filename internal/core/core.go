// Package core implements the paper's contribution: truss-based structural
// diversity search. The structural diversity score(v) of a vertex is the
// number of maximal connected k-trusses (social contexts) in its
// ego-network (paper Def. 3); the top-r search problem returns the r
// vertices with the highest scores plus their social contexts (paper §2.3).
//
// Four searchers of increasing sophistication are provided, matching the
// paper's evaluation:
//
//   - Online (Algorithm 3): compute score(v) for every vertex from scratch.
//   - Bound (Algorithm 4): graph sparsification (Property 1) plus the
//     degree/triangle upper bound (Lemma 2) with early termination.
//   - TSD (Algorithms 5-6): a per-vertex maximum-spanning-forest index over
//     trussness-weighted ego-networks; answers any (k, r) in O(m).
//   - GCT (Algorithms 7-8): a supernode/superedge compression of TSD built
//     with one-shot global triangle listing and bitmap truss
//     decomposition; score(v) = N_k - M_k (Lemma 3).
//
// The Hybrid competitor of paper Exp-4, which precomputes per-k answer
// lists but recovers social contexts online, is the truss row of the
// per-measure ranking tables (Ranked, built by BuildAll): by Lemma 3 the
// same table serves it.
package core

import (
	"cmp"
	"slices"
	"sort"
)

// VertexScore pairs a vertex with its structural diversity score.
type VertexScore struct {
	V     int32
	Score int
}

// Result is a top-r answer: the chosen vertices with their scores, sorted
// by score descending (ties by ascending vertex ID), and the social
// contexts of each chosen vertex as sorted global-vertex lists.
type Result struct {
	TopR     []VertexScore
	Contexts map[int32][][]int32
	// Epoch identifies the graph snapshot that answered, for mutable-graph
	// deployments. Searchers leave it zero; the trussdiv.DB facade stamps
	// it with the epoch of the snapshot the query ran against.
	Epoch uint64
}

// Stats reports search effort. ScoreComputations is the paper's "search
// space" metric (Table 2): the number of vertices whose structural
// diversity was actually computed. Candidates counts vertices that
// survived pruning and entered the candidate order. Engine is filled by
// the routing facade with the name of the engine that answered.
type Stats struct {
	ScoreComputations int
	Candidates        int
	Engine            string
}

// ScoreMultiset returns the sorted (descending) multiset of scores in the
// answer. Two correct searchers must agree on this multiset even when tie
// vertices at the boundary differ (the paper's problem statement permits
// any r vertices attaining the top-r scores).
func (r *Result) ScoreMultiset() []int {
	out := make([]int, len(r.TopR))
	for i, e := range r.TopR {
		out[i] = e.Score
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// sortAnswer orders entries canonically: score descending, vertex ID
// ascending.
func sortAnswer(entries []VertexScore) { slices.SortFunc(entries, compareRanked) }

// compareRanked is the canonical order as a comparison: negative when a
// ranks before b.
func compareRanked(a, b VertexScore) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// topRHeap maintains the r best (score, vertex) pairs seen so far as a
// min-heap keyed by score (ties: larger vertex ID is "worse", so answers
// prefer smaller IDs deterministically). The paper's frameworks replace
// the minimum only on strictly larger scores (Algorithm 3 lines 4-7); we
// additionally replace on an equal score with a smaller vertex ID, which
// makes the heap's final contents the r best entries under the total
// order (score desc, vertex asc) regardless of offer order. That
// order-independence is what lets a parallel scan merge
// per-worker heaps into an answer byte-identical to the serial scan's,
// and makes every engine's answer canonical on score ties.
type topRHeap struct {
	r       int
	entries []VertexScore
}

func newTopRHeap(r int) *topRHeap {
	return &topRHeap{r: r, entries: make([]VertexScore, 0, r)}
}

func (h *topRHeap) worse(a, b VertexScore) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.V > b.V
}

func (h *topRHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h.entries[i], h.entries[parent]) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *topRHeap) down(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.worse(h.entries[l], h.entries[min]) {
			min = l
		}
		if r < n && h.worse(h.entries[r], h.entries[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.entries[i], h.entries[min] = h.entries[min], h.entries[i]
		i = min
	}
}

// Offer considers (v, score) for the answer set and reports whether it was
// admitted. An entry is admitted while the heap is below capacity, or when
// it beats the current minimum under (score desc, vertex asc) — so equal
// scores resolve to the smaller vertex ID no matter the offer order.
func (h *topRHeap) Offer(v int32, score int) bool {
	if h.r == 0 {
		return false // R capped to an empty candidate set
	}
	e := VertexScore{V: v, Score: score}
	if len(h.entries) < h.r {
		h.entries = append(h.entries, e)
		h.up(len(h.entries) - 1)
		return true
	}
	if h.worse(h.entries[0], e) {
		h.entries[0] = e
		h.down(0)
		return true
	}
	return false
}

// Full reports whether r entries have been collected.
func (h *topRHeap) Full() bool { return len(h.entries) >= h.r }

// MinScore returns the smallest admitted score, or -1 while not full.
func (h *topRHeap) MinScore() int {
	if !h.Full() {
		return -1
	}
	return h.entries[0].Score
}

// Answer extracts the sorted answer list.
func (h *topRHeap) Answer() []VertexScore {
	out := make([]VertexScore, len(h.entries))
	copy(out, h.entries)
	sortAnswer(out)
	return out
}
