package trussdiv

import (
	"context"
	"errors"
	"fmt"

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
// no duplicate edits, no edge appearing in both lists, every insertion
// absent from the current graph and every deletion present in it. The
// vertex set is fixed at Open — edits naming vertices outside [0, N) are
// rejected (grow the vertex set by rebuilding the graph).
type Updates struct {
	Insert []Edge
	Delete []Edge
}

// UpdateError reports a rejected update batch: the offending edge and the
// reason. Apply rejects the whole batch atomically — the DB keeps serving
// its current snapshot and the epoch does not advance.
type UpdateError struct {
	Edge   Edge
	Reason string
}

func (e *UpdateError) Error() string {
	return fmt.Sprintf("trussdiv: cannot apply edit (%d,%d): %s", e.Edge.U, e.Edge.V, e.Reason)
}

// ErrBadUpdate is the sentinel matched by errors.Is when an update batch
// is rejected; the concrete error is *UpdateError.
var ErrBadUpdate = errors.New("trussdiv: invalid update batch")

// Is makes errors.Is(err, ErrBadUpdate) match.
func (e *UpdateError) Is(target error) bool { return target == ErrBadUpdate }

// Rebinder is an optional interface for engines plugged in through
// DB.Register: when the DB applies an update batch, a custom engine
// implementing Rebinder is asked for a replacement bound to the edited
// graph, which serves in the next snapshot. Custom engines without it are
// carried into the next snapshot unchanged — correct only for engines
// that read the graph through the DB rather than holding their own copy.
type Rebinder interface {
	Rebind(g *Graph) (Engine, error)
}

// Snapshot is one immutable version of the DB: a graph, the index cache
// built over it, and the engine registry bound to both, all stamped with
// an epoch. Queries against a Snapshot are guaranteed consistent — a
// concurrent Apply builds the next snapshot on the side and never touches
// this one, so a reader that grabbed a Snapshot keeps its epoch (and its
// answers) for as long as it holds the reference. DB query methods grab
// the current snapshot once per call; hold one explicitly (db.Snapshot())
// to pin a multi-query read to a single graph version.
type Snapshot struct {
	epoch  Epoch
	g      *Graph
	w      workload
	cache  *indexCache
	reg    *registry
	forced string
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
func newSnapshot(epoch Epoch, g *Graph, cache *indexCache, forced string) (*Snapshot, error) {
	s := &Snapshot{
		epoch:  epoch,
		g:      g,
		w:      measure(g),
		cache:  cache,
		reg:    newRegistry(),
		forced: forced,
	}
	cache.setEpoch(epoch)
	// One online searcher per snapshot, recovering contexts through the
	// snapshot's shared scorers; the ranked engines scan with it while
	// their tables are cold.
	online := core.NewOnlineFrom(cache.scorers)
	ranked := func(m Measure) *rankedEngine {
		return &rankedEngine{name: rankedEngineName(m), measure: m,
			coldBuild: m == MeasureTruss, online: online, cache: cache, w: s.w}
	}
	for _, reg := range []struct {
		engine   Engine
		routable bool
	}{
		{&onlineEngine{eng: online, scorer: cache.scorers[MeasureTruss], w: s.w}, true},
		{newBoundEngine(g, s.w, cache), true},
		{&tsdEngine{cache: cache, w: s.w}, true},
		{&gctEngine{cache: cache, w: s.w}, true},
		// The ranked engines are routable for their own measure only (they
		// declare it via MeasureLister): hybrid for truss, comp and kcore
		// for the other two, so truss queries never see comp/kcore.
		{ranked(MeasureTruss), true},
		{ranked(MeasureComponent), true},
		{ranked(MeasureCore), true},
		// The parameter-free engine serves every measure but only the
		// k-less queries (K == 0), which in turn route only to it — the
		// K axis partitions the routing matrix, so the fixed-k engines'
		// reachability is unchanged.
		{&pfreeEngine{w: s.w, online: online, cache: cache}, true},
	} {
		if err := s.reg.add(reg.engine, reg.routable); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Epoch returns the snapshot's version number.
func (s *Snapshot) Epoch() Epoch { return s.epoch }

// Graph returns the graph this snapshot serves.
func (s *Snapshot) Graph() *Graph { return s.g }

// ApplyStats reports the incremental-repair work of the Apply that
// produced this snapshot: how many edges changed and how many ego-network
// structures were rebuilt rather than rebuilt-from-scratch. Nil for the
// Open snapshot, and for applies that found no repairable index in memory.
func (s *Snapshot) ApplyStats() *UpdateStats {
	if s.applied == nil {
		return nil
	}
	cp := *s.applied
	return &cp
}

// Engines lists the snapshot's registered engine names in registration
// order.
func (s *Snapshot) Engines() []string { return s.reg.names() }

// Engine returns the named engine bound to this snapshot; the error is a
// *UnknownEngineError (matching errors.Is(err, ErrUnknownEngine)) for
// unregistered names.
func (s *Snapshot) Engine(name string) (Engine, error) { return s.reg.lookup(name) }

// Route returns the routable engine with the lowest cost estimate for q
// among those serving q.Measure, counting any index the engine would
// still have to build. Ties keep the earliest registered engine. Routing
// is snapshot-aware: an index that survived the last Apply repaired or
// patched (TSD, GCT, the truss decomposition, the rankings) keeps its
// zero build cost, while one whose repair declined (region over budget)
// prices its lazy rebuild back in. Routing is also K-aware: q.K == 0
// selects among the parameter-free engines only, any other K among the
// fixed-k engines only. Route returns nil when no routable engine
// serves the measure (or the measure name is unknown); the query paths
// report that as an error.
func (s *Snapshot) Route(q Query) Engine {
	if !q.Measure.Valid() {
		return nil
	}
	return s.cheapest(q, 1)
}

// cheapest returns the routable engine serving q.Measure, on q's side of
// the K axis (parameter-free for q.K == 0, fixed-k otherwise), with the
// lowest cost when its build cost is divided across batchSize queries;
// nil when no such engine is registered. Ties keep the earliest
// registered engine.
func (s *Snapshot) cheapest(q Query, batchSize int) Engine {
	var best Engine
	bestCost := 0.0
	for _, e := range s.reg.routableFor(q.Measure) {
		if isParameterFree(e) != (q.K == 0) {
			continue
		}
		est := e.Cost(q)
		if c := est.Build/float64(batchSize) + est.Query; best == nil || c < bestCost {
			best, bestCost = e, c
		}
	}
	return best
}

// routeAmortized is the single routing policy: per-query pin, then the
// DB-level pin (both checked against the query's measure and the
// engine-aware K contract), then the cheapest routable engine serving
// the measure with the index build cost divided across batchSize
// queries (1 = the TopR single-query case, where the division is a
// no-op). Queries without a K (q.K == 0) route among the
// parameter-free engines only; fixed-k queries never see those.
func (s *Snapshot) routeAmortized(q Query, batchSize int) (Engine, error) {
	if q.Engine != "" {
		return s.lookupValidated(q.Engine, q)
	}
	if s.forced != "" {
		return s.lookupValidated(s.forced, q)
	}
	if !q.Measure.Valid() {
		_, err := ParseMeasure(string(q.Measure))
		return nil, err
	}
	if q.K != 0 && q.K < 2 {
		return nil, &BadQueryError{K: q.K,
			Reason: "k must be >= 2, or 0 for parameter-free search"}
	}
	best := s.cheapest(q, batchSize)
	if best == nil {
		if q.K == 0 {
			return nil, &BadQueryError{K: 0, Reason: fmt.Sprintf(
				"no parameter-free engine is routable for measure %q; set k >= 2",
				q.Measure.Normalize())}
		}
		return nil, fmt.Errorf("trussdiv: no routable engine registered for measure %q",
			q.Measure.Normalize())
	}
	return best, nil
}

// lookupValidated resolves a pinned engine name and checks the query's
// K against the engine's contract.
func (s *Snapshot) lookupValidated(name string, q Query) (Engine, error) {
	eng, err := s.reg.lookupFor(name, q.Measure)
	if err != nil {
		return nil, err
	}
	if err := validateQueryK(eng, q); err != nil {
		return nil, err
	}
	return eng, nil
}

// ResolveEngine resolves the engine that would answer q exactly as TopR
// does: the per-query Engine pin (checked against q.Measure), else the
// DB-level WithEngine default, else the cheapest routable engine serving
// q.Measure. The error is an *UnknownEngineError for unregistered pins
// and an *UnsupportedMeasureError for pins outside the measure's row of
// the routing matrix.
func (s *Snapshot) ResolveEngine(q Query) (Engine, error) {
	return s.routeAmortized(q, 1)
}

// resolveBatch resolves every query's engine with the index build cost
// amortized over the batch size.
func (s *Snapshot) resolveBatch(qs []Query) ([]Engine, error) {
	engines := make([]Engine, len(qs))
	for i, q := range qs {
		eng, err := s.routeAmortized(q, len(qs))
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	return engines, nil
}

// TopR answers a top-r query through the cheapest (or pinned) engine of
// this snapshot, consulting the serving-side result cache first: a
// repeat of a query this snapshot already answered returns the cached
// Result (byte-identical — it IS the earlier answer) without entering
// the engine. The Result is stamped with the snapshot's epoch; the
// Stats, when requested, name the engine that answered.
func (s *Snapshot) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	eng, err := s.routeAmortized(q, 1)
	if err != nil {
		return nil, nil, err
	}
	return s.cachedTopR(ctx, eng, q)
}

// cachedTopR runs q through an already-resolved engine with the result
// cache consulted first — the single execution point shared by TopR,
// Batch, and (via TopR) the server, so every serving path sees the same
// cache.
func (s *Snapshot) cachedTopR(ctx context.Context, eng Engine, q Query) (*Result, *Stats, error) {
	var key resultKey
	if s.results != nil {
		key = resultCacheKey(s.epoch, eng.Name(), q)
		if res, stats, ok := s.results.get(key, q.Candidates); ok {
			return res, stats, nil
		}
	}
	res, stats, err := eng.TopR(ctx, q)
	if res != nil {
		res.Epoch = uint64(s.epoch)
	}
	if stats != nil {
		stats.Engine = eng.Name()
	}
	if err == nil && s.results != nil {
		s.results.put(key, q.Candidates, res, stats)
	}
	return res, stats, err
}

// Score returns score(v) at threshold k, reading the GCT index when one
// is built (O(log) per query) and computing online otherwise.
func (s *Snapshot) Score(ctx context.Context, v, k int32) (int, error) {
	return s.pointEngine().Score(ctx, v, k)
}

// Contexts returns the social contexts SC(v) at threshold k, using the
// same index-if-available strategy as Score.
func (s *Snapshot) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	return s.pointEngine().Contexts(ctx, v, k)
}

// pointEngine picks the engine for single-vertex queries: the pinned one,
// else gct once its index exists, else the online scorer.
func (s *Snapshot) pointEngine() Engine {
	name := s.forced
	if name == "" {
		if s.cache.hasGCT() {
			name = "gct"
		} else {
			name = "online"
		}
	}
	e, err := s.reg.lookup(name)
	if err != nil { // unreachable: built-ins are always registered
		panic(err)
	}
	return e
}

// Prepare eagerly readies the named engines of this snapshot; see
// DB.Prepare.
func (s *Snapshot) Prepare(ctx context.Context, names ...string) error {
	if len(names) == 0 {
		names = prepareAll
	}
	// One store rewrite at the end instead of one per built accelerator.
	s.cache.beginDeferredPersist()
	defer s.cache.endDeferredPersist()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Build every missing ego-derived structure the names need in one
	// shared per-vertex extraction pass instead of one pass each; the loop
	// below then finds them in memory. See indexCache.prepareShared.
	s.cache.prepareShared(names)
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch name {
		case "bound":
			// The bound engine's per-query sparsification reads the cached
			// global truss decomposition.
			s.cache.trussTau()
		case "tsd":
			s.cache.tsdIndex()
		case "gct":
			s.cache.gctIndex()
		case "hybrid":
			s.cache.rankedTable(MeasureTruss, true)
		case "comp":
			// The native measure engines precompute their per-k rankings
			// (the hybrid strategy generalized), so prepared measures answer
			// top-r in O(r).
			s.cache.rankedTable(MeasureComponent, true)
		case "kcore":
			s.cache.rankedTable(MeasureCore, true)
		case "pfree":
			// The parameter-free engine is prepared for every measure it
			// serves: each measure's table (built here if missing) derives
			// its pfree row — Ranking(0) — once, so a prepared pfree answers
			// any measure's k-less top-r in O(r).
			for _, m := range AllMeasures() {
				s.cache.rankedTable(m, true).Ranking(0)
			}
		case "online":
			// stateless engine: nothing to prepare
		default:
			if _, err := s.reg.lookup(name); err != nil {
				return err
			}
			return fmt.Errorf("trussdiv: Prepare: engine %q manages its own state", name)
		}
	}
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
// Indexes are maintained incrementally instead of rebuilt: one pass over
// the vertices in the edits' triangle neighborhoods — the only
// ego-networks the batch touched (the paper's §5.3 locality argument) —
// repairs the in-memory TSD and GCT indexes and patches every
// per-measure ranking table (hybrid's included, and with it the pfree
// rows derived from them); the
// global truss decomposition is repaired inside the locality bound of the
// edit batch (each edit moves trussness by at most one, so the change is
// confined to a bottleneck-connected region around the edits — see
// DESIGN.md), falling back to a parallel rebuild when the region exceeds
// its budget.
// ApplyStats on the new snapshot reports which path each structure took,
// and cost routing prices whichever survivors exist.
//
// A batch that fails validation (errors.Is(err, ErrBadUpdate)) is rejected
// whole: the epoch does not advance and the DB keeps serving its current
// snapshot. An empty batch is a no-op returning the current epoch. Apply
// calls serialize with each other; ctx is observed between repair phases
// (an individual repair is not interruptible).
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
	ins, del, err := u.normalize(cur.g)
	if err != nil {
		return 0, err
	}
	if len(ins) == 0 && len(del) == 0 {
		return cur.epoch, nil
	}
	newG, err := core.ApplyEdits(cur.g, ins, del)
	if err != nil {
		// unreachable after normalize, but a second line of defense
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	nextCache, stats, err := cur.cache.advance(ctx, newG, ins, del)
	if err != nil {
		return 0, err
	}
	next, err := newSnapshot(cur.epoch+1, newG, nextCache, db.forced)
	if err != nil {
		return 0, err // unreachable: built-ins always register cleanly
	}
	next.applied = stats
	next.results = db.results
	// Rebind custom engines into a scratch list first: a failure anywhere
	// must leave db.custom untouched, or an engine could end up bound to a
	// graph the DB never adopted.
	rebound := make([]customEngine, len(db.custom))
	copy(rebound, db.custom)
	for i := range rebound {
		e := rebound[i].engine
		if rb, ok := e.(Rebinder); ok {
			re, err := rb.Rebind(newG)
			if err != nil {
				return 0, fmt.Errorf("trussdiv: Apply: rebind engine %q: %w", e.Name(), err)
			}
			e = re
			rebound[i].engine = re
		}
		if err := next.reg.add(e, rebound[i].routable); err != nil {
			return 0, err
		}
	}
	db.custom = rebound
	db.snap.Store(next)
	if db.results != nil {
		// The epoch in every key already guarantees no stale hit; the
		// purge just frees the retired graph's entries from the LRU.
		db.results.invalidateBelow(next.epoch)
	}
	return next.epoch, nil
}

// normalize canonicalizes and validates one update batch against g:
// orientations are normalized to U < V, and the batch must contain no
// duplicates, no insert∩delete overlap, only in-range endpoints, only
// absent edges in Insert and present edges in Delete.
func (u Updates) normalize(g *Graph) (ins, del []Edge, err error) {
	n := int32(g.N())
	seen := make(map[Edge]string, len(u.Insert)+len(u.Delete))
	canon := func(e Edge, kind string) (Edge, error) {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.U == e.V {
			return e, &UpdateError{Edge: e, Reason: "self-loop"}
		}
		if e.U < 0 || e.V >= n {
			return e, &UpdateError{Edge: e,
				Reason: fmt.Sprintf("endpoint out of range [0,%d) (the vertex set is fixed at Open; rebuild to grow it)", n)}
		}
		if prev, dup := seen[e]; dup {
			reason := "duplicate edit in batch"
			if prev != kind {
				reason = "edge appears in both Insert and Delete"
			}
			return e, &UpdateError{Edge: e, Reason: reason}
		}
		seen[e] = kind
		return e, nil
	}
	for _, e := range u.Insert {
		e, err := canon(e, "insert")
		if err != nil {
			return nil, nil, err
		}
		if g.HasEdge(e.U, e.V) {
			return nil, nil, &UpdateError{Edge: e, Reason: "insert of an edge already present"}
		}
		ins = append(ins, e)
	}
	for _, e := range u.Delete {
		e, err := canon(e, "delete")
		if err != nil {
			return nil, nil, err
		}
		if !g.HasEdge(e.U, e.V) {
			return nil, nil, &UpdateError{Edge: e, Reason: "delete of an edge not present"}
		}
		del = append(del, e)
	}
	return ins, del, nil
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
