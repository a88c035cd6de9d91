package core

// Parameter-free structural diversity ("Parameter-free Structural
// Diversity Search", arXiv:1908.11612, same authors as the base paper).
// Every fixed-k engine answers for one threshold k; the parameter-free
// objective aggregates the whole per-k score vector s_m(v, ·) of a vertex
// into one number, an h-index style fixpoint over the threshold axis:
//
//	pfree(v) = max{ h >= 1 : s_m(v, max(h, 2)) >= h },  0 if no h qualifies
//
// The max(h, 2) clamp exists because every measure's threshold axis starts
// at k = 2: h = 1 and h = 2 are both witnessed at level 2. The
// discriminating level k*(v) = max(pfree(v), 2) witnesses the score; the
// pfree contexts of v are the measure's contexts at k*(v).
//
// Threshold 0 selects the objective throughout this package: a
// VertexScorer or Scorer scores and recovers contexts parameter-freely at
// k = 0, Online scans with it, and a Ranked table answers K = 0 from a
// pfree row it derives once from its own per-k rows (pfreeRow).

// pfreeScore aggregates one vertex's per-k score vector (indexed by k,
// entries 0 and 1 unused, nil when the vertex has no contexts at any
// level) into its parameter-free score: the maximum h any level
// witnesses, 0 when none qualifies.
func pfreeScore(allK []int) int {
	best := 0
	for k := 2; k < len(allK); k++ {
		best = max(best, witness(k, allK[k]))
	}
	return best
}

// witness is the h that s contexts at level k witness: level 2 witnesses
// h = min(s, 2), a level k >= 3 witnesses h = k iff s >= k.
func witness(k, s int) int {
	switch {
	case s <= 0:
		return 0
	case k == 2:
		return min(s, 2)
	case s >= k:
		return k
	}
	return 0
}

// pfreeLevel returns the discriminating level k*(v) = max(pfreeScore, 2)
// of a per-k score vector, 0 when the score is 0 (no contexts at any
// level).
func pfreeLevel(allK []int) int32 {
	h := pfreeScore(allK)
	if h == 0 {
		return 0
	}
	return int32(max(h, 2))
}

// pfreeRow derives the canonical pfree ranking (score descending, vertex
// ascending, zero scores omitted, never nil) from the table's per-k rows,
// once per table. Every listed (v, k, s) entry witnesses exactly the
// per-level h of pfreeScore, so one pass over the table takes each
// vertex's best witness, and a counting sort over the scores — bucketed
// by score descending, filled in vertex order — lays out the row: O(n +
// table), no map and no comparison sort.
func (r *Ranked) pfreeRow() []VertexScore {
	r.pfOnce.Do(func() {
		best := make([]int32, r.scorer.g.N())
		// A witness never exceeds its level, so scores stay below len(perK).
		count := make([]int, len(r.perK)+1)
		for k := 2; k < len(r.perK); k++ {
			for _, e := range r.perK[k] {
				if h := int32(witness(k, e.Score)); h > best[e.V] {
					best[e.V] = h
				}
			}
		}
		for _, h := range best {
			count[h]++
		}
		// Turn the counts into each bucket's first slot, higher scores
		// first; bucket 0 (no score) is left out of the row.
		total := 0
		for h := len(count) - 1; h >= 1; h-- {
			c := count[h]
			count[h] = total
			total += c
		}
		row := make([]VertexScore, total)
		for v, h := range best {
			if h > 0 {
				row[count[h]] = VertexScore{V: int32(v), Score: int(h)}
				count[h]++
			}
		}
		r.pf = row
	})
	return r.pf
}
