package trussdiv

import (
	"context"
	"fmt"
	"slices"

	"trussdiv/internal/core"
	"trussdiv/internal/store"
)

// Epoch numbers the graph versions a DB has served: Open produces epoch 1
// (or resumes the epoch a warm index store recorded), and every successful
// Apply produces the next one. A Result's Epoch field names the snapshot
// that answered it.
type Epoch uint64

// Updates is one atomic batch of edge edits for DB.Apply. Edges may be
// given in either orientation; the batch must be internally consistent:
// no self-loops, no duplicate edits, no edge appearing in both lists,
// every insertion absent from the current graph and every deletion
// present in it. The vertex set is fixed at Open — edits naming vertices
// outside [0, N) are rejected (grow the vertex set by rebuilding the
// graph). A batch with one fault is rejected with that fault; one with
// several reports the first of them in this order: a self-loop or an
// out-of-range endpoint, in input order (insertions, then deletions);
// the smallest edge listed twice or in both lists; the smallest
// insertion of a present edge, then the smallest deletion of an absent
// one.
type Updates struct {
	Insert []Edge
	Delete []Edge
}

// UpdateError reports a rejected update batch: the offending edge, in
// canonical orientation (U < V), and the reason. Apply rejects the whole
// batch atomically — the DB keeps serving its current snapshot and the
// epoch does not advance.
type UpdateError = core.UpdateError

// ErrBadUpdate is the sentinel matched by errors.Is when an update batch
// is rejected; the concrete error is *UpdateError.
var ErrBadUpdate = core.ErrBadUpdate

// Snapshot is one immutable version of the DB: a graph, the index cache
// built over it, and the engine catalogue bound to both, all stamped with
// an epoch. Queries against a Snapshot are guaranteed consistent — a
// concurrent Apply builds the next snapshot on the side and never touches
// this one, so a reader that grabbed a Snapshot keeps its epoch (and its
// answers) for as long as it holds the reference. DB query methods grab
// the current snapshot once per call; hold one explicitly (db.Snapshot())
// to pin a multi-query read to a single graph version.
type Snapshot struct {
	epoch   Epoch
	g       *Graph
	w       workload
	cache   *indexCache
	bound   *core.Bound // Algorithm 4; keeps its levels while the snapshot lives
	engines catalogue
	// applied records the incremental-repair work of the update batch that
	// produced this snapshot (nil for the Open snapshot and for snapshots
	// whose caches held nothing repairable).
	applied *core.UpdateStats
	// results is the DB's serving-side result cache (nil when disabled).
	// Keys carry the epoch, so a pinned old snapshot and the live one
	// share the structure without ever sharing entries.
	results *resultCache
}

// newSnapshot binds the built-in engines to one graph + cache pair. The
// cache's epoch is aligned so persisted state names this snapshot.
func newSnapshot(epoch Epoch, g *Graph, cache *indexCache) *Snapshot {
	s := &Snapshot{epoch: epoch, g: g, w: measure(g), cache: cache}
	cache.setEpoch(epoch)
	// One online searcher per snapshot, recovering contexts through the
	// snapshot's shared scorers; the table engines scan with it while
	// their tables are cold.
	online := core.NewOnlineFrom(cache.scorers)
	s.bound = core.NewBoundFrom(cache.scorers, cache.trussTau)
	s.engines = catalogue{
		s.onlineEngine(online),
		s.boundEngine(),
		// TSD.Search scores by O(log) reads of the read-only index, so
		// concurrent searches over the shared index need no serialization.
		s.indexEngine("tsd", store.SecTSD, s.w.m, s.w.egoWork,
			func(ctx context.Context, p core.Params) (*Result, *Stats, error) {
				return core.NewTSD(cache.tsdIndex()).Search(ctx, p)
			}),
		// Exact GCT scores are O(log d(v)) reads, so a query is ~n work. The
		// build does slightly more than TSD's (compression on top of the
		// same per-ego decompositions).
		s.indexEngine("gct", store.SecGCT, s.w.n, 1.2*s.w.egoWork,
			func(ctx context.Context, p core.Params) (*Result, *Stats, error) {
				return core.NewGCT(cache.gctIndex()).Search(ctx, p)
			}),
		// The fixed-k table engines serve their own measure only: hybrid
		// for truss, comp and kcore for the other two, so truss queries
		// never see comp/kcore.
		s.tableEngine("hybrid", online, false, MeasureTruss),
		s.tableEngine("comp", online, false, MeasureComponent),
		s.tableEngine("kcore", online, false, MeasureCore),
		// The parameter-free engine serves every measure but only the
		// k-less queries (K == 0), which in turn route only to it — the
		// K axis partitions the routing matrix, so the fixed-k engines'
		// reachability is unchanged. It reads every measure's table.
		s.tableEngine("pfree", online, true, AllMeasures()...),
	}
	return s
}

// Epoch returns the snapshot's version number.
func (s *Snapshot) Epoch() Epoch { return s.epoch }

// Graph returns the graph this snapshot serves.
func (s *Snapshot) Graph() *Graph { return s.g }

// ApplyStats reports the incremental-repair work of the Apply that
// produced this snapshot: how many edges changed, how many vertices' ego-
// network structures the patch pass re-derived, and how many ranking
// tables it patched. Nil for the Open snapshot, and for applies that found
// no ego-derived index in memory.
func (s *Snapshot) ApplyStats() *UpdateStats {
	if s.applied == nil {
		return nil
	}
	cp := *s.applied
	return &cp
}

// Engines lists the snapshot's engine names in catalogue order.
func (s *Snapshot) Engines() []string { return s.engines.names() }

// Engine returns the named engine bound to this snapshot; the error is a
// *UnknownEngineError (matching errors.Is(err, ErrUnknownEngine)) for
// names outside the catalogue.
func (s *Snapshot) Engine(name string) (Engine, error) {
	e, err := s.engines.lookup(name)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Route returns the engine with the lowest cost estimate for q among
// those serving q.Measure, counting any index the engine would still
// have to build. Ties keep the earliest engine in catalogue order.
// Routing is snapshot-aware: an index that survived the last Apply
// patched (TSD, GCT, the rankings) keeps its zero build cost, while the
// truss decomposition, which Apply leaves cold, prices its lazy rebuild
// into bound's estimate until the epoch's first bound query readies it.
// Routing is also K-aware: q.K == 0 selects the parameter-free engine, any
// other K selects among the fixed-k engines. Route returns nil when the measure name is
// unknown; the query paths report that as an error.
func (s *Snapshot) Route(q Query) Engine {
	if !q.Measure.Valid() {
		return nil
	}
	return s.cheapest(q, 1)
}

// cheapest returns the entry serving q.Measure, on q's side of the K
// axis (parameter-free for q.K == 0, fixed-k otherwise), with the lowest
// cost when its build cost is divided across batchSize queries. Ties
// keep the earliest entry in catalogue order. A valid measure always has
// one, so the result is never nil.
func (s *Snapshot) cheapest(q Query, batchSize int) *catalogueEntry {
	m := q.Measure.Normalize()
	var best *catalogueEntry
	bestCost := 0.0
	for i := range s.engines {
		e := &s.engines[i]
		if e.kless != (q.K == 0) || !e.serves(m) {
			continue
		}
		est := e.cost(q)
		if c := est.Build/float64(batchSize) + est.Query; best == nil || c < bestCost {
			best, bestCost = e, c
		}
	}
	return best
}

// routeAmortized is the single routing policy: the per-query pin
// (held to the pinned entry's check), else the cheapest engine serving
// the measure with the index build cost divided across batchSize queries
// (1 = the TopR single-query case, where the division is a no-op).
// Queries without a K (q.K == 0) route to the parameter-free engine;
// fixed-k queries never see it. A measure name that does not exist is a
// parse error on both paths, before the pin is looked up.
func (s *Snapshot) routeAmortized(q Query, batchSize int) (*catalogueEntry, error) {
	if !q.Measure.Valid() {
		_, err := ParseMeasure(string(q.Measure))
		return nil, err
	}
	if q.Engine != "" {
		e, err := s.engines.lookup(q.Engine)
		if err != nil {
			return nil, err
		}
		if err := e.check(q); err != nil {
			return nil, err
		}
		return e, nil
	}
	if q.K != 0 && q.K < 2 {
		return nil, &BadQueryError{K: q.K,
			Reason: "k must be >= 2, or 0 for parameter-free search"}
	}
	return s.cheapest(q, batchSize), nil
}

// ResolveEngine resolves the engine that would answer q exactly as TopR
// does: the per-query Engine pin (checked against q.Measure), else the
// cheapest engine serving q.Measure. The error is an *UnknownEngineError
// for unknown pins and an *UnsupportedMeasureError for pins outside the
// measure's row of the routing matrix.
func (s *Snapshot) ResolveEngine(q Query) (Engine, error) {
	e, err := s.routeAmortized(q, 1)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// resolveBatch resolves every query's engine with the index build cost
// amortized over the batch size.
func (s *Snapshot) resolveBatch(qs []Query) ([]*catalogueEntry, error) {
	engines := make([]*catalogueEntry, len(qs))
	for i, q := range qs {
		e, err := s.routeAmortized(q, len(qs))
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return engines, nil
}

// TopR answers a top-r query through the cheapest (or pinned) engine of
// this snapshot, consulting the serving-side result cache first: a
// repeat of a query this snapshot already answered returns the cached
// Result (byte-identical — it IS the earlier answer) without entering
// the engine. The Result is stamped with the snapshot's epoch; the
// Stats name the engine that answered, and are nil when q.SkipStats is
// set.
func (s *Snapshot) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	e, err := s.routeAmortized(q, 1)
	if err != nil {
		return nil, nil, err
	}
	res, stats, err := s.cachedTopR(ctx, e, q)
	if q.SkipStats {
		stats = nil
	}
	return res, stats, err
}

// cachedTopR runs q, already checked by routeAmortized, through its
// resolved entry with the result cache consulted first — the single
// execution point shared by TopR, Batch, and (via TopR) the server, so
// every serving path sees the same cache.
func (s *Snapshot) cachedTopR(ctx context.Context, e *catalogueEntry, q Query) (*Result, *Stats, error) {
	var key resultKey
	if s.results != nil {
		key = resultCacheKey(s.epoch, e.name, q)
		if res, stats, ok := s.results.get(key, q.Candidates); ok {
			return res, stats, nil
		}
	}
	res, stats, err := e.run(ctx, q)
	if res != nil {
		res.Epoch = uint64(s.epoch)
	}
	if stats != nil {
		stats.Engine = e.name
	}
	if err == nil && s.results != nil {
		s.results.put(key, q.Candidates, res, stats)
	}
	return res, stats, err
}

// Score returns score(v) at threshold k, reading the GCT index when one
// is built (O(log) per query) and computing online otherwise.
func (s *Snapshot) Score(ctx context.Context, v, k int32) (int, error) {
	return s.ScoreMeasure(ctx, v, k, MeasureTruss)
}

// Contexts returns the social contexts SC(v) at threshold k, using the
// same index-if-available strategy as Score.
func (s *Snapshot) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	return s.ContextsMeasure(ctx, v, k, MeasureTruss)
}

// pointScorer answers single-vertex queries; the GCT index and the
// shared measure scorers both have this shape.
type pointScorer interface {
	Score(v, k int32) int
	Contexts(v, k int32) [][]int32
}

// point validates a single-vertex query — ctx live, m known, v in range,
// k >= 2 (k = 0 for the parameter-free query, pfree) — and returns what
// answers it: for the truss measure at k >= 2 the GCT index when it is in
// memory (O(log) per query), else the snapshot's shared scorer of m,
// whose threshold 0 is the parameter-free score.
func (s *Snapshot) point(ctx context.Context, v, k int32, m Measure, pfree bool) (pointScorer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !m.Valid() {
		_, err := ParseMeasure(string(m))
		return nil, err
	}
	if v < 0 || int(v) >= s.g.N() {
		return nil, fmt.Errorf("trussdiv: vertex %d out of range [0,%d)", v, s.g.N())
	}
	if pfree {
		return s.cache.scorers[m.Normalize()], nil
	}
	if k < 2 {
		return nil, fmt.Errorf("trussdiv: k = %d, must be >= 2", k)
	}
	if m.Normalize() == MeasureTruss {
		if gct := s.cache.builtGCT(); gct != nil {
			return gct, nil
		}
	}
	return s.cache.scorers[m.Normalize()], nil
}

// Prepare eagerly readies the named engines of this snapshot; see
// DB.Prepare.
func (s *Snapshot) Prepare(ctx context.Context, names ...string) error {
	if len(names) == 0 {
		names = prepareAll
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	entries := make([]*catalogueEntry, len(names))
	for i, name := range names {
		e, err := s.engines.lookup(name)
		if err != nil {
			return err
		}
		entries[i] = e
	}
	var refs []store.SectionRef
	for _, ref := range cacheSections {
		for _, e := range entries {
			if slices.Contains(e.needs, ref) {
				refs = append(refs, ref)
				break
			}
		}
	}
	s.cache.ready(refs)
	return nil
}

// Snapshot returns the DB's current snapshot. The reference stays valid —
// and keeps answering with its own graph version — across any number of
// subsequent Apply calls.
func (db *DB) Snapshot() *Snapshot { return db.snap.Load() }

// Epoch returns the epoch of the DB's current snapshot.
func (db *DB) Epoch() Epoch { return db.Snapshot().epoch }

// Apply atomically applies one batch of edge insertions and deletions and
// installs the resulting graph as the DB's next snapshot, returning its
// epoch. The transition is copy-on-write: in-flight readers keep the
// snapshot (and epoch) they started with, never block on the apply, and
// never observe a half-applied batch — the new snapshot becomes visible in
// one pointer swap after it is fully built.
//
// Ego-derived indexes are maintained incrementally instead of rebuilt:
// one pass over the vertices in the edits' triangle neighborhoods — the
// only ego-networks the batch touched (the paper's §5.3 locality
// argument) — repairs the in-memory TSD and GCT indexes and patches every
// per-measure ranking table (hybrid's included, and with each its pfree
// row 0). The global truss decomposition, read only by
// the bound engine, is not maintained: the new snapshot starts with it
// cold, and the first bound query of the epoch rebuilds it once with the
// parallel peeling — cost routing prices that rebuild into bound's
// estimate until it is done. ApplyStats on the new snapshot reports the
// patch pass's work.
//
// A batch that breaks the Updates contract is rejected whole with an
// *UpdateError (errors.Is(err, ErrBadUpdate)), found by the one check
// that core.ApplyEdits makes while it builds the edited graph: the epoch
// does not advance and the DB keeps serving its current snapshot. An
// empty batch is a no-op returning the current epoch. Apply
// calls serialize with each other; ctx is observed before validation,
// after the graph edit, and after the patch pass (the pass itself is not
// interruptible).
//
// The persistent index store, when configured, is not rewritten by Apply —
// call SaveIndexes to persist the post-update state (the file is
// fingerprinted against the new graph and records the new epoch).
func (db *DB) Apply(ctx context.Context, u Updates) (Epoch, error) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cur := db.snap.Load()
	if len(u.Insert) == 0 && len(u.Delete) == 0 {
		return cur.epoch, nil
	}
	newG, err := core.ApplyEdits(cur.g, u.Insert, u.Delete)
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	nextCache, stats, err := cur.cache.advance(ctx, newG, u.Insert, u.Delete, &db.patchScratch)
	if err != nil {
		return 0, err
	}
	next := newSnapshot(cur.epoch+1, newG, nextCache)
	next.applied = stats
	next.results = db.results
	db.snap.Store(next)
	if db.results != nil {
		// The epoch in every key already guarantees no stale hit; the
		// purge just frees the retired graph's entries from the LRU.
		db.results.invalidateBelow(next.epoch)
	}
	return next.epoch, nil
}

// IndexStats reports which indexes of this snapshot are ready, their
// sizes, and the time spent building and loading them.
func (s *Snapshot) IndexStats() IndexStats {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	st := IndexStats{
		TSDReady:    c.tsd != nil,
		GCTReady:    c.gct != nil,
		HybridReady: c.ranked[MeasureTruss] != nil,
		TauReady:    c.tau != nil,
		BuildTime:   c.buildTime,
		LoadTime:    c.loadTime,
	}
	for _, m := range AllMeasures() {
		if c.ranked[m] == nil {
			continue
		}
		if m != MeasureTruss {
			st.MeasureRankings = append(st.MeasureRankings, m)
		}
		st.PFreeRankings = append(st.PFreeRankings, m)
	}
	if c.tsd != nil {
		st.TSDBytes = c.tsd.SizeBytes()
	}
	if c.gct != nil {
		st.GCTBytes = c.gct.SizeBytes()
	}
	return st
}

// StoreStatus reports the state of this snapshot's connection to the
// persistent index store.
func (s *Snapshot) StoreStatus() StoreStatus {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StoreStatus{
		Dir:     c.dir,
		LoadErr: c.loadErr,
		SaveErr: c.saveErr,
	}
	if c.dir != "" {
		st.Path = store.PathIn(c.dir)
	}
	st.Mode = StoreDecode
	if c.file != nil {
		st.Warm = true
		st.FormatVersion = store.Version // the only format OpenFile accepts
		if c.file.Mode() == store.ModeMmap {
			st.Mode = StoreMmap
		}
		for _, sec := range c.file.Sections() {
			st.Sections = append(st.Sections, sec.String())
		}
	}
	return st
}
