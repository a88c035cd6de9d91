package trussdiv_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"trussdiv"
)

// TestResultCacheHitReturnsIdenticalResult: the second identical query
// is a cache hit that returns the exact answer of the first — same
// bytes, same stats — without re-entering the engine.
func TestResultCacheHitReturnsIdenticalResult(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := trussdiv.NewQuery(3, 10, trussdiv.WithContexts())

	first, stats1, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rc := db.ResultCacheStats()
	if !rc.Enabled || rc.Misses != 1 || rc.Hits != 0 || rc.Size != 1 {
		t.Fatalf("after one query: %+v", rc)
	}
	second, stats2, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rc = db.ResultCacheStats()
	if rc.Hits != 1 || rc.Misses != 1 {
		t.Fatalf("second identical query was not a hit: %+v", rc)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached answer differs from the computed one:\n got %+v\nwant %+v", second, first)
	}
	if !reflect.DeepEqual(stats1, stats2) {
		t.Fatalf("cached stats differ: got %+v want %+v", stats2, stats1)
	}

	// A different query shape is its own entry, not a collision.
	other, _, err := db.TopR(ctx, trussdiv.NewQuery(4, 10, trussdiv.WithContexts()))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.TopR, other.TopR) && first.TopR[0].Score == other.TopR[0].Score {
		t.Log("k=3 and k=4 coincide on this graph; key separation still verified by counters")
	}
	if rc := db.ResultCacheStats(); rc.Size != 2 || rc.Misses != 2 {
		t.Fatalf("distinct query did not get its own entry: %+v", rc)
	}
}

// TestResultCacheCandidateSetsAreExact: candidate-restricted queries hit
// only on the exact same candidate set — a set with the same length (and
// potentially the same hash) never serves another set's answer.
func TestResultCacheCandidateSetsAreExact(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	candsA := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	candsB := []int32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}

	qA := trussdiv.NewQuery(3, 5, trussdiv.WithCandidates(candsA...))
	qB := trussdiv.NewQuery(3, 5, trussdiv.WithCandidates(candsB...))
	resA, _, err := db.TopR(ctx, qA)
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := db.TopR(ctx, qB)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range resA.TopR {
		if e.V >= 10 {
			t.Fatalf("candidate set A answered with vertex %d outside the set", e.V)
		}
	}
	for _, e := range resB.TopR {
		if e.V < 10 {
			t.Fatalf("candidate set B answered with vertex %d outside the set", e.V)
		}
	}
	// Replays hit their own entries.
	againA, _, err := db.TopR(ctx, qA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, againA) {
		t.Fatal("candidate-set replay returned a different answer")
	}
	if rc := db.ResultCacheStats(); rc.Hits != 1 || rc.Misses != 2 {
		t.Fatalf("candidate-set caching counters: %+v", rc)
	}
}

// TestApplyInvalidatesResultCache: the epoch bump of an Apply means a
// post-update repeat of a cached query recomputes against the new graph
// instead of serving the retired epoch's answer.
func TestApplyInvalidatesResultCache(t *testing.T) {
	g := overlayGraph(t)
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := trussdiv.NewQuery(3, 10, trussdiv.WithContexts())
	if _, _, err := db.TopR(ctx, q); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	if _, err := db.Apply(ctx, randomUpdates(t, g, rng, 3, 3)); err != nil {
		t.Fatal(err)
	}
	rc := db.ResultCacheStats()
	if rc.Invalidated == 0 || rc.Size != 0 {
		t.Fatalf("Apply did not purge the retired epoch's entries: %+v", rc)
	}
	res, _, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != uint64(db.Epoch()) {
		t.Fatalf("post-Apply answer carries epoch %d, want %d", res.Epoch, db.Epoch())
	}
	if rc := db.ResultCacheStats(); rc.Misses != 2 {
		t.Fatalf("post-Apply repeat should recompute, not hit: %+v", rc)
	}
	// And match a cold DB over the edited graph exactly.
	cold, err := trussdiv.Open(db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cold.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-apply vs cold", res, want)
}

// TestPinnedSnapshotBypassesNewerEpochCache: a reader holding a pinned
// pre-update Snapshot keeps answering from its own graph version — the
// cache entries the live DB writes for the new epoch can never serve it.
func TestPinnedSnapshotBypassesNewerEpochCache(t *testing.T) {
	g := overlayGraph(t)
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := trussdiv.NewQuery(3, 10, trussdiv.WithContexts())

	pinned := db.Snapshot()
	before, _, err := pinned.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	if _, err := db.Apply(ctx, randomUpdates(t, g, rng, 4, 4)); err != nil {
		t.Fatal(err)
	}
	// Prime the cache with the NEW epoch's answer for the same query.
	live, _, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if live.Epoch != uint64(db.Epoch()) || live.Epoch == before.Epoch {
		t.Fatalf("live answer epoch %d, pinned %d, current %d", live.Epoch, before.Epoch, db.Epoch())
	}
	// The pinned reader recomputes (its epoch's entries were purged) and
	// must reproduce its own graph's answer — never the newer entry.
	after, _, err := pinned.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch {
		t.Fatalf("pinned reader served epoch %d, want its own %d", after.Epoch, before.Epoch)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("pinned reader's answer changed after an Apply it should not observe")
	}
}

// TestWithResultCacheDisabled: WithResultCache(0) turns the cache off —
// queries work, counters stay zero.
func TestWithResultCacheDisabled(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t), trussdiv.WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := trussdiv.NewQuery(3, 10)
	for i := 0; i < 2; i++ {
		if _, _, err := db.TopR(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if rc := db.ResultCacheStats(); rc.Enabled || rc.Hits != 0 || rc.Misses != 0 {
		t.Fatalf("disabled cache reports activity: %+v", rc)
	}
}

// TestResultCacheNoKKeying is the k = 0 collision regression: a
// parameter-free query (k absent, i.e. 0) and fixed-k queries at small
// k must occupy distinct cache entries — the key's k is 0 only for the
// parameter-free query, since every fixed k that reaches the cache is at
// least 2. k = 1 fails validation and must leave the cache untouched
// entirely.
func TestResultCacheNoKKeying(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := []trussdiv.Query{
		trussdiv.NewQuery(0, 10), // parameter-free, routes to pfree
		trussdiv.NewQuery(2, 10),
		trussdiv.NewQuery(3, 10),
	}
	first := make([]*trussdiv.Result, len(qs))
	for i, q := range qs {
		res, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatalf("k=%d: %v", q.K, err)
		}
		first[i] = res
	}
	if rc := db.ResultCacheStats(); rc.Size != len(qs) || rc.Misses != uint64(len(qs)) || rc.Hits != 0 {
		t.Fatalf("the three k shapes did not get three distinct entries: %+v", rc)
	}
	// Replaying each query hits its own entry and returns its own bytes.
	for i, q := range qs {
		res, _, err := db.TopR(ctx, q)
		if err != nil {
			t.Fatalf("k=%d replay: %v", q.K, err)
		}
		if !reflect.DeepEqual(res, first[i]) {
			t.Fatalf("k=%d replay returned another entry's answer", q.K)
		}
	}
	if rc := db.ResultCacheStats(); rc.Hits != uint64(len(qs)) || rc.Misses != uint64(len(qs)) {
		t.Fatalf("replays were not all hits: %+v", rc)
	}
	// k = 1 is invalid for every engine: rejected before the cache.
	if _, _, err := db.TopR(ctx, trussdiv.NewQuery(1, 10)); err == nil {
		t.Fatal("k=1 query succeeded")
	}
	if rc := db.ResultCacheStats(); rc.Misses != uint64(len(qs)) || rc.Size != len(qs) {
		t.Fatalf("invalid k=1 query touched the cache: %+v", rc)
	}
}

// TestResultCachePerEngineStats: ResultCacheStats splits hits and
// misses by the engine each query resolved to, so a mixed workload's
// cache behavior is attributable per engine.
func TestResultCachePerEngineStats(t *testing.T) {
	db, err := trussdiv.Open(overlayGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pf := trussdiv.NewQuery(0, 8)                               // routes to pfree
	fixed := trussdiv.NewQuery(4, 8, trussdiv.ViaEngine("gct")) // pinned fixed-k
	for i := 0; i < 3; i++ {                                    // 1 miss + 2 hits each
		if _, _, err := db.TopR(ctx, pf); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.TopR(ctx, fixed); err != nil {
			t.Fatal(err)
		}
	}
	rc := db.ResultCacheStats()
	if rc.Hits != 4 || rc.Misses != 2 {
		t.Fatalf("totals: %+v", rc)
	}
	for engine, wantMiss := range map[string]uint64{"pfree": 1, "gct": 1} {
		if got := rc.MissesByEngine[engine]; got != wantMiss {
			t.Fatalf("MissesByEngine[%q] = %d, want %d (%+v)", engine, got, wantMiss, rc.MissesByEngine)
		}
		if got := rc.HitsByEngine[engine]; got != 2 {
			t.Fatalf("HitsByEngine[%q] = %d, want 2 (%+v)", engine, got, rc.HitsByEngine)
		}
	}
	// The per-engine split always sums to the totals.
	var hits, misses uint64
	for _, n := range rc.HitsByEngine {
		hits += n
	}
	for _, n := range rc.MissesByEngine {
		misses += n
	}
	if hits != rc.Hits || misses != rc.Misses {
		t.Fatalf("per-engine split does not sum to totals: %+v", rc)
	}
}

// TestResultCacheSharedAcrossStatsOptOut: asking for stats or not does
// not split the cache. A TopR followed by the same query in a Batch
// (which never returns stats), or by the same query WithoutStats, is one
// miss and one hit on one entry, in either order, and the opt-out only
// nils the returned Stats.
func TestResultCacheSharedAcrossStatsOptOut(t *testing.T) {
	withStats := trussdiv.NewQuery(4, 1)
	noStats := trussdiv.NewQuery(4, 1, trussdiv.WithoutStats())
	for _, tc := range []struct {
		name          string
		first, second func(*trussdiv.DB) (*trussdiv.Stats, error)
		wantStats     bool // whether the second call returns Stats
	}{
		{"TopR then Batch", topRStats(withStats), batchStats(noStats), false},
		{"TopR then WithoutStats", topRStats(withStats), topRStats(noStats), false},
		{"WithoutStats then TopR", topRStats(noStats), topRStats(withStats), true},
	} {
		db, err := trussdiv.Open(trussdiv.PaperExampleGraph())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.first(db); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stats, err := tc.second(db)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rc := db.ResultCacheStats(); rc.Hits != 1 || rc.Misses != 1 || rc.Size != 1 {
			t.Errorf("%s: %+v, want one miss, one hit, one entry", tc.name, rc)
		}
		if (stats != nil) != tc.wantStats {
			t.Errorf("%s: second call's stats = %+v, want present = %v", tc.name, stats, tc.wantStats)
		}
	}
}

// topRStats and batchStats run q through DB.TopR or a one-query
// DB.Batch and return the Stats the call hands back (Batch: none).
func topRStats(q trussdiv.Query) func(*trussdiv.DB) (*trussdiv.Stats, error) {
	return func(db *trussdiv.DB) (*trussdiv.Stats, error) {
		_, stats, err := db.TopR(context.Background(), q)
		return stats, err
	}
}

func batchStats(q trussdiv.Query) func(*trussdiv.DB) (*trussdiv.Stats, error) {
	return func(db *trussdiv.DB) (*trussdiv.Stats, error) {
		_, err := db.Batch(context.Background(), []trussdiv.Query{q})
		return nil, err
	}
}
