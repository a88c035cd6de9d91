package trussdiv

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trussdiv/internal/core"
	"trussdiv/internal/par"
	"trussdiv/internal/store"
)

// DB is the query facade over one evolving graph. Queries always run
// against a consistent, epoch-numbered Snapshot (db.Snapshot() pins one
// explicitly; every query method grabs the current snapshot once per
// call), and Apply installs the next snapshot copy-on-write with the
// search indexes repaired incrementally. Within a snapshot the DB holds
// the fixed catalogue of eight engines, lazily builds and caches the
// search indexes, and routes each query to the engine whose cost estimate
// is lowest (unless the query pinned one with ViaEngine). A DB is safe
// for concurrent use, including queries concurrent with Apply.
type DB struct {
	snap atomic.Pointer[Snapshot]

	// results is the serving-side result cache, shared by every snapshot
	// the DB installs (nil when disabled). Entries are keyed by epoch, so
	// the cache never needs locking against Apply: the epoch bump is the
	// invalidation.
	results *resultCache

	// applyMu serializes Apply calls. Readers never take it.
	applyMu sync.Mutex
	// patchScratch is the patch pass's per-worker storage, kept from one
	// Apply to the next under applyMu so each batch reuses the ego-network
	// markers instead of allocating an int32 per vertex per worker. It
	// lives on the DB, never on a snapshot, and is empty until the first
	// Apply.
	patchScratch core.PassScratch
}

// Option configures Open.
type Option func(*dbConfig)

type dbConfig struct {
	indexDir     string
	storeMode    StoreMode
	resultCap    int
	resultCapSet bool
}

// StoreMode selects how a DB reads its persistent index store (see
// WithStoreMode). The zero value is StoreMmap.
type StoreMode int

const (
	// StoreMmap maps the index file read-only and serves array sections as
	// zero-copy views out of the page cache — warm starts touch O(1) bytes
	// per section instead of reading the file, and N replicas of one graph
	// share a single physical copy of the index. Section checksums are left
	// to an explicit verify pass. Requires a little-endian host and OS mmap
	// support; anything else silently degrades to StoreDecode
	// (StoreStatus.Mode reports what actually happened).
	StoreMmap StoreMode = iota
	// StoreDecode reads each section from disk into freshly allocated
	// memory and checks its CRC on every read; the arrays are then parsed
	// exactly as under StoreMmap. Use it when the index file lives on
	// storage that cannot back a long-lived mapping (e.g. some network
	// filesystems).
	StoreDecode
)

// String returns "mmap" or "decode".
func (m StoreMode) String() string {
	if m == StoreDecode {
		return "decode"
	}
	return "mmap"
}

// WithResultCache sets the capacity of the serving-side result cache,
// which memoizes TopR answers per (epoch, engine, query) and is
// invalidated wholesale by Apply's epoch bump — repeated dashboard
// queries between updates cost one lookup instead of a search. n <= 0
// disables the cache. The default capacity is 512 entries. Results
// served from the cache are byte-identical to a fresh computation
// (callers must treat Result values as immutable, which every built-in
// consumer already does).
func WithResultCache(n int) Option {
	return func(c *dbConfig) { c.resultCap = n; c.resultCapSet = true }
}

// Store options
//
// WithIndexDir connects the DB to its persistent index store and
// WithStoreMode picks how that store is read; DB.StoreStatus and
// DB.SaveIndexes complete the store surface.

// WithIndexDir connects the DB to a persistent index store in dir (the
// file is dir/indexes.tdx; build one offline with cmd/tsdindex or let the
// DB write it). On a cache miss the DB loads the needed index from the
// file instead of building it, and every index it does build from scratch
// is persisted back — so a redeployed server warm starts at load cost
// rather than build cost. A file whose fingerprint does not match g (or
// that is corrupt or from another format version) is never loaded: the DB
// falls back to building and StoreStatus reports the typed rejection
// (errors.Is against ErrStaleIndex, ErrIndexCorrupt, ErrIndexVersion).
// A warm file also restores the epoch counter it recorded, so epochs keep
// increasing across redeploys of an updated graph.
//
// Index files are memory-mapped by default — see WithStoreMode.
func WithIndexDir(dir string) Option {
	return func(c *dbConfig) { c.indexDir = dir }
}

// WithStoreMode selects how the index store configured with WithIndexDir
// is read: StoreMmap (the default) serves zero-copy views over a
// read-only mapping of the index file, StoreDecode forces the classic
// read-and-decode path. The mode never changes query results — answers
// are byte-identical either way — only where the index arrays live.
// Without WithIndexDir the option has no effect.
func WithStoreMode(m StoreMode) Option {
	return func(c *dbConfig) { c.storeMode = m }
}

// prepareAll is the default Prepare set: every truss engine whose
// readiness the index cache (and therefore the index store) manages. The
// native measure engines are prepared by explicit name ("comp", "kcore")
// so the default stays byte-compatible with pre-measure DBs.
var prepareAll = []string{"bound", "tsd", "gct", "hybrid"}

// Open wraps g in a DB serving the eight built-in engines: online,
// bound, tsd, gct, and hybrid for the truss measure, comp and kcore for
// their own measures, and pfree for k-less queries. Indexes are loaded
// from the index store (WithIndexDir) or built lazily on first use; call
// Prepare to build them up front.
// The DB starts at epoch 1 (or the epoch a warm index store recorded);
// Apply advances it.
func Open(g *Graph, opts ...Option) (*DB, error) {
	if g == nil {
		return nil, errors.New("trussdiv: Open: nil graph")
	}
	var cfg dbConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	cache := newIndexCache(g, cfg)
	epoch := Epoch(1)
	if stored := cache.storedEpoch(); stored > Epoch(0) {
		epoch = stored
	}
	resultCap := resultCacheDefaultCap
	if cfg.resultCapSet {
		resultCap = cfg.resultCap
	}
	db := &DB{results: newResultCache(resultCap)}
	snap := newSnapshot(epoch, g, cache)
	snap.results = db.results
	db.snap.Store(snap)
	return db, nil
}

// Graph returns the graph of the DB's current snapshot.
func (db *DB) Graph() *Graph { return db.Snapshot().g }

// Engines lists the engine names in catalogue order.
func (db *DB) Engines() []string { return db.Snapshot().Engines() }

// Engine returns the named engine bound to the current snapshot; the
// error is a *UnknownEngineError (matching errors.Is(err,
// ErrUnknownEngine)) for names outside the catalogue. The returned
// engine keeps serving its snapshot's graph across later Apply calls —
// re-fetch after applying updates to follow the newest graph.
func (db *DB) Engine(name string) (Engine, error) { return db.Snapshot().Engine(name) }

// Route returns the engine of the current snapshot with the lowest cost
// estimate for q; see Snapshot.Route.
func (db *DB) Route(q Query) Engine { return db.Snapshot().Route(q) }

// TopR answers a top-r query through the cheapest (or pinned) engine of
// the current snapshot. The Result carries the snapshot's epoch; the
// Stats, when requested, name the engine that answered.
func (db *DB) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return db.Snapshot().TopR(ctx, q)
}

// Batch answers many queries in one pass against a single snapshot: every
// engine the batch needs is resolved up front, the indexes behind those
// engines are built once (before any query runs, so no query stalls on a
// build another triggered), and the queries then fan out across a pool of
// GOMAXPROCS goroutines. Results are positional: results[i] answers
// qs[i], each byte-identical to what TopR would return for the same
// query, and all stamped with one epoch — an Apply concurrent with a
// Batch never splits the batch across graph versions.
//
// Routing is batch-aware: an index build amortizes over the whole batch,
// so a batch of queries may route to an index engine where the same
// queries one at a time would have stayed on an index-free one. Per-query
// ViaEngine pins are honored as in TopR.
//
// Batch is all-or-nothing: the first error cancels the remaining queries
// and is returned with a nil slice. An empty batch returns (nil, nil).
//
// The batch fan-out is itself the parallel axis, so a query whose Workers
// field is 0 (the GOMAXPROCS default in TopR) runs serially inside the
// batch — concurrent queries each spawning a full worker pool would
// oversubscribe the CPU. An explicit Workers value (including negative
// for GOMAXPROCS) is honored as given.
func (db *DB) Batch(ctx context.Context, qs []Query) ([]*Result, error) {
	return db.Snapshot().Batch(ctx, qs)
}

// Batch answers many queries in one pass against this snapshot; see
// DB.Batch.
func (s *Snapshot) Batch(ctx context.Context, qs []Query) ([]*Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	engines, err := s.resolveBatch(qs)
	if err != nil {
		return nil, err
	}
	// Batch-aware routing may pick an engine on the strength of an
	// amortized index build, so every chosen engine's sections are
	// readied before the queries run.
	var names []string
	for _, e := range engines {
		if !slices.Contains(names, e.name) {
			names = append(names, e.name)
		}
	}
	if err := s.Prepare(ctx, names...); err != nil {
		return nil, err
	}
	queries := make([]Query, len(qs))
	copy(queries, qs)
	for i := range queries {
		if queries[i].Workers == 0 {
			queries[i].Workers = 1
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Result, len(qs))
	var (
		errOnce  sync.Once
		firstErr error
	)
	err = par.For(ctx, len(queries), 0, 1, func(_, i, _ int) {
		// cachedTopR consults the result cache; neither Workers nor
		// SkipStats is part of the key (answers are byte-identical across
		// worker counts, and every entry keeps its Stats), so batch and
		// single-query traffic share entries.
		res, _, err := s.cachedTopR(ctx, engines[i], queries[i])
		if err != nil {
			errOnce.Do(func() { firstErr = err; cancel() })
			return
		}
		results[i] = res
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		// Cancelled between queries: the unclaimed slots are still nil.
		return nil, err
	}
	return results, nil
}

// BatchEngines reports which engine Batch would answer each query with —
// the batch-aware routing decision — without running the queries. The
// HTTP /batch endpoint uses it to label responses.
func (db *DB) BatchEngines(qs []Query) ([]string, error) {
	return db.Snapshot().BatchEngines(qs)
}

// BatchEngines reports this snapshot's batch-aware routing decision
// without running the queries.
func (s *Snapshot) BatchEngines(qs []Query) ([]string, error) {
	engines, err := s.resolveBatch(qs)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names, nil
}

// Score returns score(v) at threshold k on the current snapshot, reading
// the GCT index when one is built (O(log) per query) and computing online
// otherwise.
func (db *DB) Score(ctx context.Context, v, k int32) (int, error) {
	return db.Snapshot().Score(ctx, v, k)
}

// Contexts returns the social contexts SC(v) at threshold k on the
// current snapshot, using the same index-if-available strategy as Score.
func (db *DB) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	return db.Snapshot().Contexts(ctx, v, k)
}

// Prepare eagerly readies the named engines (default: bound, tsd, gct,
// hybrid) of the current snapshot: it loads each engine's accelerator
// from the index store when one is configured and holds it, and builds
// the rest in one shared pass (then persists once) otherwise. Every name
// is looked up first: an unknown one fails with *UnknownEngineError
// before anything is readied. ctx is observed before the builds start —
// a build is not interruptible.
func (db *DB) Prepare(ctx context.Context, names ...string) error {
	return db.Snapshot().Prepare(ctx, names...)
}

// IndexStats describes the DB's index cache.
type IndexStats struct {
	TSDReady, GCTReady, HybridReady bool
	TauReady                        bool  // global truss decomposition cached
	TSDBytes, GCTBytes              int64 // 0 until the index is built
	// MeasureRankings lists the non-truss measures whose per-k rankings
	// are ready in memory (built by Prepare("comp"/"kcore") or loaded
	// from the index store).
	MeasureRankings []Measure
	// PFreeRankings lists the measures whose parameter-free rankings are
	// ready: those whose ranking table is in memory, since the pfree
	// ranking is the table's row 0, built, stored and patched with it.
	PFreeRankings []Measure
	BuildTime     time.Duration
	LoadTime      time.Duration // time spent reading the index store
}

// IndexStats reports which indexes of the current snapshot are ready,
// their sizes, and the time spent building them (from the graph) and
// loading them (from the index store). After an Apply every in-memory
// ego-derived structure survives patched; the truss decomposition
// (TauReady) reports not-ready until the epoch's first bound query
// rebuilds it.
func (db *DB) IndexStats() IndexStats { return db.Snapshot().IndexStats() }

// StoreStatus describes the DB's connection to its persistent index
// store (nothing is set when Open ran without WithIndexDir).
type StoreStatus struct {
	// Dir is the configured index directory; Path the index file in it.
	Dir, Path string
	// Warm reports that a validated index file is available, and Sections
	// names the parts it holds ("truss", "tsd", "gct", "rankings",
	// "epoch", and "rankings@component"/"rankings@core").
	Warm     bool
	Sections []string
	// FormatVersion is the on-disk format version of the warm file (4,
	// the only one accepted; 0 when no file is loaded), and Mode is how
	// the file is actually being read — StoreMmap only when the mapping is live, StoreDecode
	// when the configured (or fallen-back-to) path decodes sections.
	FormatVersion uint32
	Mode          StoreMode
	// LoadErr is the typed reason an on-disk index was rejected or a
	// section read failed — match it with errors.Is against
	// ErrStaleIndex, ErrIndexVersion, ErrIndexCorrupt, or ErrNotIndexFile.
	// The DB has already fallen back to building when it is non-nil.
	LoadErr error
	// SaveErr is the most recent persist failure, nil when the last write
	// (if any) succeeded.
	SaveErr error
}

// StoreStatus reports the state of the persistent index store as seen by
// the current snapshot.
func (db *DB) StoreStatus() StoreStatus { return db.Snapshot().StoreStatus() }

// ResultCacheStats reports the serving-side result cache's counters:
// hits, misses, entries invalidated by Apply, and the current LRU
// occupancy. All-zero with Enabled false when Open disabled the cache
// via WithResultCache(0).
func (db *DB) ResultCacheStats() ResultCacheStats { return db.results.statsSnapshot() }

// SaveIndexes persists every index the current snapshot holds in memory —
// plus anything already in the index file — to the configured index
// directory, atomically replacing the file, and returns the path it
// wrote. The file is fingerprinted against the snapshot's graph and
// records its epoch, so calling it after Apply persists the post-update
// state (and makes the previous on-disk state unreadable for the old
// graph, by design). It builds nothing; call Prepare first to persist a
// complete set. Open must have been given WithIndexDir.
func (db *DB) SaveIndexes() (string, error) {
	c := db.Snapshot().cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir == "" {
		return "", errors.New("trussdiv: SaveIndexes: no index directory configured (Open with WithIndexDir)")
	}
	c.persistLocked()
	if c.saveErr != nil {
		return "", c.saveErr
	}
	return store.PathIn(c.dir), nil
}
