package core

import (
	"errors"
	"fmt"
	"slices"

	"trussdiv/internal/graph"
)

// Dynamic index maintenance (paper §5.3 Remarks): an edge change touches
// only a bounded set of ego-networks, so the index can be repaired
// without a full rebuild.
//
// Inserting or deleting edge (u,v) changes:
//   - the ego-network of u (it gains/loses vertex v and v's links into
//     N(u) ∩ N(v)),
//   - the ego-network of v (symmetrically), and
//   - the ego-network of every common neighbor w ∈ N(u) ∩ N(v) (it
//     gains/loses the edge (u,v)).
//
// No other ego-network contains both endpoints of the changed edge, so
// re-deriving the per-vertex structures of that affected set — against
// the edited graph, in one PatchAll pass — restores the exact index.

// UpdateStats reports the work an incremental update performed.
type UpdateStats struct {
	Inserted, Removed int // edges actually changed
	// Affected is the number of vertices whose ego-networks the patch pass
	// re-derived (0 when no ego-derived structure — TSD, GCT, or a ranking
	// table — was in memory, so no patch pass ran).
	Affected int
	// TrussRepaired and TrussRegion are always false and 0: Apply no
	// longer repairs the global truss decomposition (the first bound query
	// of the next epoch rebuilds it). They are kept for the loadbench
	// traced run, which replays the incremental truss repair and reads
	// them, until the benchmark drops that replay.
	TrussRepaired bool
	TrussRegion   int
	// RankingsPatched counts per-k ranking tables (hybrid plus per-measure)
	// that were patched in place instead of invalidated.
	RankingsPatched int
}

// AffectedVertices returns the sorted set of vertices whose ego-networks
// an edit batch touches: {u, v} ∪ (N(u) ∩ N(v)) per edit, with common
// neighbors taken in the graph where the edge exists (the new graph for
// insertions, the old one for deletions). No other vertex's ego-network
// contains both endpoints of a changed edge, so this is exactly the set
// whose per-vertex structures — and therefore ranking entries — can
// change.
func AffectedVertices(oldG, newG *graph.Graph, inserted, removed []graph.Edge) []int32 {
	var out []int32
	for _, e := range inserted {
		out = newG.CommonNeighbors(append(out, e.U, e.V), e.U, e.V)
	}
	for _, e := range removed {
		out = oldG.CommonNeighbors(append(out, e.U, e.V), e.U, e.V)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ErrBadUpdate is the sentinel matched by errors.Is when an edit batch is
// rejected; the concrete error is *UpdateError.
var ErrBadUpdate = errors.New("trussdiv: invalid update batch")

// UpdateError reports a rejected edit batch: the offending edge, in
// canonical orientation (U < V), and the reason. A rejected batch changes
// nothing.
type UpdateError struct {
	Edge   graph.Edge
	Reason string
}

func (e *UpdateError) Error() string {
	return fmt.Sprintf("trussdiv: cannot apply edit (%d,%d): %s", e.Edge.U, e.Edge.V, e.Reason)
}

// Is makes errors.Is(err, ErrBadUpdate) match.
func (e *UpdateError) Is(target error) bool { return target == ErrBadUpdate }

// ApplyEdits builds the graph g with the edges of insert added and those
// of remove deleted. The vertex count is preserved (new vertices are not
// supported: add them by rebuilding). Edges may be given in either
// orientation. This is the one check of an edit batch, and it rejects
// the batch with an *UpdateError naming the first fault it finds, in
// this order:
//   - each edit in input order, insertions then deletions, for a
//     self-loop or an endpoint outside [0, N);
//   - the smallest edge listed twice or in both lists;
//   - the smallest insertion of an edge already present, then the
//     smallest deletion of an edge not present.
//
// A batch with one fault therefore reports that fault; a batch with
// several reports the first in this order. Given the same inputs the
// result is deterministic, so every structure repaired against it (the
// PatchAll pass, a replayed truss repair) shares one canonical graph and
// its edge-ID assignment. The checked, sorted batches go to graph.Edit,
// which splices them into g's adjacency and copies the untouched runs in
// bulk. Neither the checks nor the edit read edge IDs, so the result's
// are laid out only by its first per-edge access.
func ApplyEdits(g *graph.Graph, insert, remove []graph.Edge) (*graph.Graph, error) {
	n := int32(g.N())
	ins, del := make([]graph.Edge, len(insert)), make([]graph.Edge, len(remove))
	if err := canonicalEdits(ins, insert, n); err != nil {
		return nil, err
	}
	if err := canonicalEdits(del, remove, n); err != nil {
		return nil, err
	}
	slices.SortFunc(ins, graph.CompareEdges)
	slices.SortFunc(del, graph.CompareEdges)
	// Walk the two sorted lists as one merged list, insertions first on a
	// tie: the first edge equal to its predecessor is the smallest one
	// listed twice or in both lists.
	var prev graph.Edge
	prevIns := false
	for i, j := 0, 0; i < len(ins) || j < len(del); {
		var e graph.Edge
		isIns := j == len(del) || i < len(ins) && graph.CompareEdges(ins[i], del[j]) <= 0
		if isIns {
			e, i = ins[i], i+1
		} else {
			e, j = del[j], j+1
		}
		if i+j > 1 && e == prev {
			reason := "duplicate edit in batch"
			if isIns != prevIns {
				reason = "edge appears in both Insert and Delete"
			}
			return nil, &UpdateError{Edge: e, Reason: reason}
		}
		prev, prevIns = e, isIns
	}
	for _, e := range ins {
		if g.HasEdge(e.U, e.V) {
			return nil, &UpdateError{Edge: e, Reason: "insert of an edge already present"}
		}
	}
	for _, e := range del {
		if !g.HasEdge(e.U, e.V) {
			return nil, &UpdateError{Edge: e, Reason: "delete of an edge not present"}
		}
	}
	return g.Edit(ins, del), nil
}

// canonicalEdits writes src into dst with every edge oriented U < V,
// rejecting the first self-loop or endpoint outside [0, n).
func canonicalEdits(dst, src []graph.Edge, n int32) error {
	for i, e := range src {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.U == e.V {
			return &UpdateError{Edge: e, Reason: "self-loop"}
		}
		if e.U < 0 || e.V >= n {
			return &UpdateError{Edge: e,
				Reason: fmt.Sprintf("endpoint out of range [0,%d) (the vertex set is fixed at Open; rebuild to grow it)", n)}
		}
		dst[i] = e
	}
	return nil
}
