package core

import "context"

// Exported hooks for the parameter-free search subsystem
// (internal/pfree). The parameter-free objective aggregates the per-k
// score vector of a vertex across every threshold at once
// (VertexScorer.ScoresAllK), and it answers under the canonical-order
// primitives every engine shares: the ranked prefix read, the padded
// scan, the sharded context recovery, and the patch merge. Exporting them
// here keeps internal/pfree byte-identical to the existing engines by
// construction instead of by re-implementation.

// SortCanonical orders entries under the library's total order: score
// descending, vertex ID ascending — the order every engine's answer (and
// every persisted ranking) is pinned to.
func SortCanonical(entries []VertexScore) { sortAnswer(entries) }

// MergeRanked merges the surviving old entries (old minus the affected
// vertices, already canonical) with the freshly re-scored ones (also
// canonical) into one canonically ordered list — the splice primitive of
// the ranking patch path (PatchAll's per-k tables and the pfree ranking
// patch). The result never aliases either input.
func MergeRanked(oldList, fresh []VertexScore, affected map[int32]bool) []VertexScore {
	return mergeRanked(oldList, fresh, affected)
}

// RankedAnswer selects the canonical top-r answer from one precomputed
// ranking (sorted canonically, zero scores omitted): an O(r) prefix read
// without a candidate subset, a filtered pass with one, and zero-score
// padding from the smallest unused IDs — byte-identical to what a full
// scan would answer. The second return is the number of ranked
// candidates considered.
func RankedAnswer(ranked []VertexScore, n int, p Params) ([]VertexScore, int) {
	return rankedAnswer(ranked, n, p)
}

// FinishResult assembles the Result for a canonical answer, recovering
// each answer vertex's contexts via the callback unless p.SkipContexts
// (sharded across p.Workers goroutines; contexts must be safe for
// concurrent calls).
func FinishResult(ctx context.Context, answer []VertexScore, p Params, contexts func(v int32) [][]int32) (*Result, error) {
	return finishResult(ctx, answer, p, contexts)
}

// ScanCanonical scores every candidate of p (all n vertices when
// p.Candidates is nil) with per-worker scoring functions from newScore,
// merging the per-worker heaps into the canonical top-r answer — the
// online-engine scan generalized over an arbitrary scorer. The context is
// polled on every iteration (one ego decomposition per score). The
// second return counts score computations.
func ScanCanonical(ctx context.Context, n int, p Params, newScore func() func(v int32) int) ([]VertexScore, int, error) {
	heap, scored, err := scanTopR(ctx, n, p.Candidates, p.R, p.workers(), true, newScore)
	if err != nil {
		return nil, 0, err
	}
	return heap.Answer(), scored, nil
}
