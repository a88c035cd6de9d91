package trussdiv

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
)

// The bound engine keeps each threshold's bound inputs (a level) on its
// snapshot. These tests pin that concurrent first queries share one
// level build and answer like a fresh searcher, and that a level never
// crosses an Apply.

// boundAnswer runs q pinned to bound on s; the Stats lose the Engine
// name the facade stamps, so they compare with core.Bound's.
func boundAnswer(t *testing.T, s *Snapshot, q Query) (*Result, Stats) {
	t.Helper()
	res, stats, err := s.TopR(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st := *stats
	st.Engine = ""
	return res, st
}

// freshBound answers q with a new core.Bound over g: no shared scorers,
// no levels, its own truss decomposition.
func freshBound(t *testing.T, g *Graph, q Query) (*Result, Stats) {
	t.Helper()
	res, stats, err := core.NewBound(g).Search(context.Background(),
		core.Params{K: q.K, R: q.R, Measure: q.Measure, Candidates: q.Candidates})
	if err != nil {
		t.Fatal(err)
	}
	return res, *stats
}

// TestBoundLevelBuiltOnceUnderConcurrency: 8 goroutines run their first
// bound queries at one k on one snapshot at once. Exactly one level is
// built, and every answer and Stats is byte-equal to a fresh core.Bound.
func TestBoundLevelBuiltOnceUnderConcurrency(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 400, Attach: 3, Cliques: 80, MinSize: 4, MaxSize: 8, Seed: 43,
	})
	db, err := Open(g, WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	queries := make([]Query, 8)
	for i := range queries {
		cands := make([]int32, 0, g.N()/2)
		for v := int32(i % 2); int(v) < g.N(); v += 2 {
			cands = append(cands, v)
		}
		queries[i] = NewQuery(3, 5+i, ViaEngine("bound"), WithContexts(), WithCandidates(cands...))
	}
	type answer struct {
		res   *Result
		stats Stats
	}
	got := make([]answer, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, stats, err := snap.TopR(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			st := *stats
			st.Engine = ""
			got[i] = answer{res, st}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := snap.bound.LevelBuilds(); n != 1 {
		t.Fatalf("%d bound levels built by 8 concurrent queries at one k, want 1", n)
	}
	for i, q := range queries {
		res, stats := freshBound(t, g, q)
		if !reflect.DeepEqual(got[i].res.TopR, res.TopR) || !reflect.DeepEqual(got[i].res.Contexts, res.Contexts) {
			t.Errorf("query %d: answer differs from a fresh core.Bound", i)
		}
		if got[i].stats != stats {
			t.Errorf("query %d: Stats %+v, fresh core.Bound %+v", i, got[i].stats, stats)
		}
	}
}

// TestBoundLevelsPerSnapshot: after an Apply the new snapshot starts with
// no levels, builds its own and answers like a cold DB on the edited
// graph, while a pinned old snapshot keeps answering its own epoch from
// the levels it already had.
func TestBoundLevelsPerSnapshot(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 44,
	})
	ctx := context.Background()
	db, err := Open(g, WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		NewQuery(3, 10, ViaEngine("bound"), WithContexts()),
		NewQuery(4, 10, ViaEngine("bound"), WithMeasure(MeasureCore), WithContexts()),
	}
	old := db.Snapshot()
	oldRes := make([]*Result, len(queries))
	oldStats := make([]Stats, len(queries))
	for i, q := range queries {
		oldRes[i], oldStats[i] = boundAnswer(t, old, q)
	}
	if n := old.bound.LevelBuilds(); n != 2 {
		t.Fatalf("%d levels after one truss and one core query, want 2", n)
	}

	// Delete an edge of the densest region, so the truss levels change.
	var u Updates
	for v := int32(0); int(v) < g.N() && u.Delete == nil; v++ {
		if nb := g.Neighbors(v); len(nb) >= 6 {
			u.Delete = []Edge{{U: v, V: nb[0]}}
		}
	}
	if _, err := db.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	cur := db.Snapshot()
	if n := cur.bound.LevelBuilds(); n != 0 {
		t.Fatalf("the new snapshot starts with %d levels, want 0", n)
	}
	cold, err := Open(db.Graph(), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, stats := boundAnswer(t, cur, q)
		want, wantStats := boundAnswer(t, cold.Snapshot(), q)
		if !reflect.DeepEqual(res.TopR, want.TopR) || !reflect.DeepEqual(res.Contexts, want.Contexts) || stats != wantStats {
			t.Errorf("query %d: the applied snapshot answers unlike a cold DB", i)
		}
		res, stats = boundAnswer(t, old, q)
		if !reflect.DeepEqual(res, oldRes[i]) || stats != oldStats[i] {
			t.Errorf("query %d: the pinned old snapshot changed its answer", i)
		}
	}
	if n := cur.bound.LevelBuilds(); n != 2 {
		t.Fatalf("the new snapshot built %d levels, want 2", n)
	}
	if n := old.bound.LevelBuilds(); n != 2 {
		t.Fatalf("the old snapshot built %d levels after the Apply, want still 2", n)
	}
}
