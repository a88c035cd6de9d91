package trussdiv_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"trussdiv"
	"trussdiv/internal/bench"
)

// randomUpdates picks a valid update batch for g: insertions among
// absent vertex pairs, deletions among present edges, no overlaps.
// The sampling logic lives in internal/bench (the dynamic experiment
// uses the same batches).
func randomUpdates(tb testing.TB, g *trussdiv.Graph, rng *rand.Rand, nIns, nDel int) trussdiv.Updates {
	tb.Helper()
	return bench.RandomUpdates(g, rng, nIns, nDel)
}

// sameResult compares two Results up to the epoch stamp (an applied DB
// and a freshly opened one legitimately disagree on epochs; everything
// else must be byte-identical).
func sameResult(tb testing.TB, label string, got, want *trussdiv.Result) {
	tb.Helper()
	g, w := *got, *want
	g.Epoch, w.Epoch = 0, 0
	if !reflect.DeepEqual(g.TopR, w.TopR) {
		tb.Fatalf("%s: answers differ:\n got %v\nwant %v", label, g.TopR, w.TopR)
	}
	if !reflect.DeepEqual(g.Contexts, w.Contexts) {
		tb.Fatalf("%s: contexts differ", label)
	}
}

var allEngines = []string{"online", "bound", "tsd", "gct", "hybrid"}

// TestApplyMatchesRebuildAllEngines is the correctness bar of the
// mutable-graph API: a randomized insert/delete stream is applied batch
// by batch, and after every Apply each of the five engines must answer
// exactly like a DB built cold on the mutated graph — whether the DB had
// every index warm (the incremental-repair path) or none (the
// invalidate-and-lazily-rebuild path).
func TestApplyMatchesRebuildAllEngines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prepare bool
	}{
		{"warm-indexes", true},
		{"cold-indexes", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
				N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 31,
			})
			db, err := trussdiv.Open(g)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if tc.prepare {
				if err := db.Prepare(ctx); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(7))
			for batch := 0; batch < 3; batch++ {
				u := randomUpdates(t, db.Graph(), rng, 6, 6)
				epoch, err := db.Apply(ctx, u)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if want := trussdiv.Epoch(2 + batch); epoch != want {
					t.Fatalf("batch %d: epoch = %d, want %d", batch, epoch, want)
				}
				fresh, err := trussdiv.Open(db.Graph())
				if err != nil {
					t.Fatal(err)
				}
				for _, engine := range allEngines {
					for _, k := range []int32{3, 4} {
						q := trussdiv.NewQuery(k, 10,
							trussdiv.WithContexts(), trussdiv.ViaEngine(engine))
						got, _, err := db.TopR(ctx, q)
						if err != nil {
							t.Fatalf("%s k=%d: %v", engine, k, err)
						}
						if got.Epoch != uint64(epoch) {
							t.Fatalf("%s: result epoch %d, want %d", engine, got.Epoch, epoch)
						}
						want, _, err := fresh.TopR(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, engine, got, want)
					}
				}
			}
		})
	}
}

// TestSnapshotPinning checks the reader guarantee: a snapshot grabbed
// before an Apply keeps its epoch, its graph, and its answers, while the
// DB moves on — and the pinned answers still match a cold DB on the old
// graph (the copy-on-write repair never mutates superseded state).
func TestSnapshotPinning(t *testing.T) {
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 32,
	})
	db := openPrepared(t, g, nil, "tsd", "gct")
	ctx := context.Background()
	q := trussdiv.NewQuery(4, 10, trussdiv.WithContexts(), trussdiv.ViaEngine("tsd"))
	pinned := db.Snapshot()
	before, _, err := pinned.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	for batch := 0; batch < 3; batch++ {
		if _, err := db.Apply(ctx, randomUpdates(t, db.Graph(), rng, 5, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if pinned.Epoch() != 1 {
		t.Fatalf("pinned epoch = %d, want 1", pinned.Epoch())
	}
	if db.Epoch() != 4 {
		t.Fatalf("db epoch = %d, want 4", db.Epoch())
	}
	if pinned.Graph() != g {
		t.Fatal("pinned snapshot swapped its graph")
	}
	if db.Graph() == g {
		t.Fatal("db graph did not advance")
	}

	after, _, err := pinned.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pinned pre/post", after, before)

	// The pinned answers equal a cold DB over the original graph: the
	// applies never leaked into superseded snapshots.
	coldOld, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := coldOld.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pinned vs cold-old", after, want)
}

// TestApplyValidation rejects malformed batches atomically: typed error,
// no epoch advance, graph untouched.
func TestApplyValidation(t *testing.T) {
	g := trussdiv.PaperExampleGraph()
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	edges := g.Edges()
	present := edges[0]
	var absent trussdiv.Edge
	for a := int32(0); a < int32(g.N()) && absent == (trussdiv.Edge{}); a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				absent = trussdiv.Edge{U: a, V: b}
				break
			}
		}
	}

	outOfRange := fmt.Sprintf("endpoint out of range [0,%d) (the vertex set is fixed at Open; rebuild to grow it)", g.N())
	for _, tc := range []struct {
		name   string
		u      trussdiv.Updates
		edge   trussdiv.Edge // the reported edge, canonical (U < V)
		reason string
	}{
		{"insert-present", trussdiv.Updates{Insert: []trussdiv.Edge{present}},
			present, "insert of an edge already present"},
		{"delete-absent", trussdiv.Updates{Delete: []trussdiv.Edge{absent}},
			absent, "delete of an edge not present"},
		{"duplicate-insert", trussdiv.Updates{Insert: []trussdiv.Edge{absent, {U: absent.V, V: absent.U}}},
			absent, "duplicate edit in batch"},
		{"insert-and-delete", trussdiv.Updates{Insert: []trussdiv.Edge{absent}, Delete: []trussdiv.Edge{absent}},
			absent, "edge appears in both Insert and Delete"},
		{"self-loop", trussdiv.Updates{Insert: []trussdiv.Edge{{U: 3, V: 3}}},
			trussdiv.Edge{U: 3, V: 3}, "self-loop"},
		{"out-of-range", trussdiv.Updates{Insert: []trussdiv.Edge{{U: int32(g.N()), V: 0}}},
			trussdiv.Edge{U: 0, V: int32(g.N())}, outOfRange},
		{"negative", trussdiv.Updates{Delete: []trussdiv.Edge{{U: -1, V: 2}}},
			trussdiv.Edge{U: -1, V: 2}, outOfRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := db.Apply(ctx, tc.u)
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, trussdiv.ErrBadUpdate) {
				t.Fatalf("errors.Is(err, ErrBadUpdate) = false for %v", err)
			}
			var ue *trussdiv.UpdateError
			if !errors.As(err, &ue) {
				t.Fatalf("err %T is not *UpdateError", err)
			}
			if ue.Edge != tc.edge || ue.Reason != tc.reason {
				t.Fatalf("rejected (%d,%d) %q, want (%d,%d) %q",
					ue.Edge.U, ue.Edge.V, ue.Reason, tc.edge.U, tc.edge.V, tc.reason)
			}
			if db.Epoch() != 1 {
				t.Fatalf("epoch advanced to %d on a rejected batch", db.Epoch())
			}
			if db.Graph() != g {
				t.Fatal("graph swapped on a rejected batch")
			}
		})
	}

	// An empty batch is a no-op returning the current epoch.
	epoch, err := db.Apply(ctx, trussdiv.Updates{})
	if err != nil || epoch != 1 {
		t.Fatalf("empty batch = (%d, %v), want (1, nil)", epoch, err)
	}

	// A cancelled context aborts before anything happens.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Apply(cancelled, trussdiv.Updates{Insert: []trussdiv.Edge{absent}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled apply err = %v, want context.Canceled", err)
	}
}

// TestConcurrentReadersDuringApply is the -race target of the snapshot
// transition: readers hammer TopR (and a pinned snapshot) while Apply
// streams update batches. Every result must carry an epoch the DB
// actually served, the pinned reader must stay at its epoch, and nothing
// may fault or race.
func TestConcurrentReadersDuringApply(t *testing.T) {
	t.Run("memory", func(t *testing.T) { concurrentReadersDuringApply(t, nil) })
	// The same hammer against a mmap-backed DB: queries serve from
	// zero-copy views over the store mapping while Apply repairs
	// copy-on-write and persists new epochs, so -race also patrols the
	// mapping-retention chain.
	t.Run("mmap", func(t *testing.T) {
		// Seed the store first so the DB under test warm starts from the
		// mapping instead of building in memory.
		dir := t.TempDir()
		seed := openPrepared(t, trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
			N: 250, Attach: 3, Cliques: 50, MinSize: 4, MaxSize: 6, Seed: 35,
		}), []trussdiv.Option{trussdiv.WithIndexDir(dir)}, "tsd", "gct", "pfree")
		if st := seed.StoreStatus(); st.SaveErr != nil {
			t.Fatal(st.SaveErr)
		}
		concurrentReadersDuringApply(t, []trussdiv.Option{trussdiv.WithIndexDir(dir)})
	})
}

func concurrentReadersDuringApply(t *testing.T, extra []trussdiv.Option) {
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 250, Attach: 3, Cliques: 50, MinSize: 4, MaxSize: 6, Seed: 35,
	})
	db := openPrepared(t, g, extra, "tsd", "gct", "pfree")
	if extra != nil {
		st := db.StoreStatus()
		if !st.Warm {
			t.Fatalf("store-backed variant did not warm start: %+v", st)
		}
		t.Logf("store mode: %v", st.Mode)
	}
	ctx := context.Background()
	const batches = 4
	pinned := db.Snapshot()
	pinnedWant, _, err := pinned.TopR(ctx, trussdiv.NewQuery(4, 5, trussdiv.ViaEngine("tsd"), trussdiv.WithoutStats()))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engine := allEngines[w%len(allEngines)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := db.TopR(ctx, trussdiv.NewQuery(3, 5,
					trussdiv.ViaEngine(engine), trussdiv.WithoutStats()))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.Epoch < 1 || res.Epoch > batches+1 {
					t.Errorf("reader saw epoch %d outside [1,%d]", res.Epoch, batches+1)
					return
				}
			}
		}(w)
	}
	// Parameter-free readers: the k-less cell of the matrix, every
	// measure, two readers at once. Each Apply installs freshly patched
	// tables whose pfree rows derive on first use, so the readers race to
	// derive them while Apply patches the next epoch copy-on-write.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A fresh r per call keeps the result cache from answering.
				m := trussdiv.AllMeasures()[i%3]
				res, _, err := db.TopR(ctx, trussdiv.NewQuery(0, 1+i%200, trussdiv.WithMeasure(m),
					trussdiv.ViaEngine("pfree"), trussdiv.WithoutStats()))
				if err != nil {
					t.Errorf("pfree reader: %v", err)
					return
				}
				if res.Epoch < 1 || res.Epoch > batches+1 {
					t.Errorf("pfree reader saw epoch %d outside [1,%d]", res.Epoch, batches+1)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, _, err := pinned.TopR(ctx, trussdiv.NewQuery(4, 5,
				trussdiv.ViaEngine("tsd"), trussdiv.WithoutStats()))
			if err != nil {
				t.Errorf("pinned reader: %v", err)
				return
			}
			if res.Epoch != 1 {
				t.Errorf("pinned reader drifted to epoch %d", res.Epoch)
				return
			}
			if !reflect.DeepEqual(res.TopR, pinnedWant.TopR) {
				t.Errorf("pinned reader's answer changed under Apply")
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(10))
	for batch := 0; batch < batches; batch++ {
		if _, err := db.Apply(ctx, randomUpdates(t, db.Graph(), rng, 4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if db.Epoch() != batches+1 {
		t.Fatalf("final epoch = %d, want %d", db.Epoch(), batches+1)
	}
}

// TestStoreEpochAcrossApply: the persistent index store is epoch-aware.
// SaveIndexes after an Apply persists the post-update state under the new
// graph's fingerprint and records the epoch; a warm reopen of the mutated
// graph resumes the epoch counter, while the pre-update graph correctly
// rejects the file as stale.
func TestStoreEpochAcrossApply(t *testing.T) {
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 200, Attach: 3, Cliques: 40, MinSize: 4, MaxSize: 6, Seed: 37,
	})
	dir := t.TempDir()
	ctx := context.Background()
	db, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	epoch, err := db.Apply(ctx, randomUpdates(t, db.Graph(), rng, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	// Re-prepare the invalidated structures against the new graph, then
	// persist the post-update state.
	if err := db.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveIndexes(); err != nil {
		t.Fatal(err)
	}

	// Warm reopen of the mutated graph: store trusted, epoch resumed.
	warm, err := trussdiv.Open(db.Graph(), trussdiv.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.StoreStatus(); !st.Warm || st.LoadErr != nil {
		t.Fatalf("warm reopen rejected the post-update store: %+v", st)
	}
	if warm.Epoch() != 2 {
		t.Fatalf("warm reopen epoch = %d, want 2 (resumed from the store)", warm.Epoch())
	}
	q := trussdiv.NewQuery(4, 10, trussdiv.WithContexts(), trussdiv.ViaEngine("tsd"))
	got, _, err := warm.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm vs applied", got, want)

	// The epoch keeps counting up from the resumed value.
	if next, err := warm.Apply(ctx, randomUpdates(t, warm.Graph(), rng, 2, 2)); err != nil || next != 3 {
		t.Fatalf("apply on warm DB = (%d, %v), want (3, nil)", next, err)
	}

	// The pre-update graph no longer matches the file: typed stale
	// rejection, rebuild fallback.
	stale, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st := stale.StoreStatus(); !errors.Is(st.LoadErr, trussdiv.ErrStaleIndex) {
		t.Fatalf("old graph against post-update store: LoadErr = %v, want ErrStaleIndex", st.LoadErr)
	}
	if stale.Epoch() != 1 {
		t.Fatalf("stale open epoch = %d, want 1", stale.Epoch())
	}
}

// TestApplyStatsAndIndexSurvival: the snapshot after an Apply reports the
// repair stats, and every prepared ego-derived structure survives — the
// TSD/GCT indexes via ego-network repair and the hybrid rankings via the
// affected-vertex patch. The truss decomposition does not: it is cold
// until the first bound query rebuilds it, whose answer matches a cold DB.
func TestApplyStatsAndIndexSurvival(t *testing.T) {
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 200, Attach: 3, Cliques: 40, MinSize: 4, MaxSize: 6, Seed: 36,
	})
	db := openPrepared(t, g, nil)
	st := db.IndexStats()
	if !st.TSDReady || !st.GCTReady || !st.HybridReady || !st.TauReady {
		t.Fatalf("prepare left indexes unready: %+v", st)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	if _, err := db.Apply(ctx, randomUpdates(t, db.Graph(), rng, 4, 4)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	ast := snap.ApplyStats()
	if ast == nil || ast.Inserted != 4 || ast.Removed != 4 || ast.Affected == 0 {
		t.Fatalf("ApplyStats = %+v", ast)
	}
	if ast.TrussRepaired || ast.TrussRegion != 0 {
		t.Fatalf("Apply reported a truss repair: %+v", ast)
	}
	if ast.RankingsPatched == 0 {
		t.Fatalf("hybrid rankings were not patched: %+v", ast)
	}
	st = snap.IndexStats()
	if !st.TSDReady || !st.GCTReady || !st.HybridReady {
		t.Fatalf("prepared structures did not survive the apply repaired: %+v", st)
	}
	if st.TauReady {
		t.Fatalf("Apply carried the truss decomposition into the new snapshot: %+v", st)
	}
	q := trussdiv.NewQuery(4, 10, trussdiv.WithContexts(), trussdiv.ViaEngine("bound"))
	got, _, err := snap.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.IndexStats().TauReady {
		t.Fatal("the first bound query after Apply did not ready the truss decomposition")
	}
	rebuilt, err := trussdiv.Open(snap.Graph())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rebuilt.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "bound after Apply vs cold", got, want)
	// A snapshot of a cold DB reports no apply stats.
	cold, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if ast := cold.Snapshot().ApplyStats(); ast != nil {
		t.Fatalf("cold snapshot ApplyStats = %+v, want nil", ast)
	}
}

// TestApplyStatsAffectedWithRankingsOnly: Affected counts the patch
// pass's vertices whenever one runs — also on a DB holding only ranking
// tables, whose Apply re-derives exactly the ego-networks a TSD-holding
// DB's does.
func TestApplyStatsAffectedWithRankingsOnly(t *testing.T) {
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 200, Attach: 3, Cliques: 40, MinSize: 4, MaxSize: 6, Seed: 42,
	})
	u := randomUpdates(t, g, rand.New(rand.NewSource(12)), 3, 3)
	affected := func(names ...string) int {
		t.Helper()
		db := openPrepared(t, g, nil, names...)
		if _, err := db.Apply(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		st := db.Snapshot().ApplyStats()
		if st == nil {
			t.Fatalf("Prepare(%v): Apply recorded no stats", names)
		}
		return st.Affected
	}
	want := affected("tsd")
	if want == 0 {
		t.Fatal("TSD-holding DB reports no affected vertices")
	}
	for _, name := range []string{"comp", "kcore", "hybrid", "pfree"} {
		if got := affected(name); got != want {
			t.Errorf("Prepare(%s): Affected = %d, want %d (as with the TSD index in memory)", name, got, want)
		}
	}
}
