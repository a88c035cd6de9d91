package trussdiv

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sync"
	"time"

	"trussdiv/internal/core"
	"trussdiv/internal/store"
	"trussdiv/internal/truss"
)

// indexCache lazily provides and shares the search accelerators — the
// global truss decomposition, the TSD/GCT structures, and the per-measure
// ranking tables — among the engine adapters of one DB snapshot, along
// with the per-measure shared scorers every point query and context
// recovery borrows. With an index directory configured (WithIndexDir), a
// cache miss first tries the on-disk store and only then builds from the
// graph; every from-scratch build is persisted back, so the next process
// warm starts. All accessors are safe for concurrent use; builds are not
// interruptible, so cancellation is observed before a build starts.
type indexCache struct {
	g *Graph

	// scorers is one shared, pooled scorer per measure over g, fixed at
	// construction (no lock needed).
	scorers core.Scorers

	mu        sync.Mutex
	epoch     Epoch   // the snapshot this cache belongs to; recorded on persist
	tau       []int32 // global truss decomposition, indexed by edge ID
	sup       []int32 // pristine edge supports matching tau (nil when tau was store-loaded)
	tsd       *core.TSDIndex
	gct       *core.GCTIndex
	ranked    map[core.Measure]*core.Ranked // per-k ranking tables (truss = hybrid; k = 0 is pfree)
	buildTime time.Duration
	loadTime  time.Duration

	// Persistence state. file is the validated warm-start file (nil on a
	// cold start); bad marks sections whose payload failed its checksum
	// (decode mode) or structural validation (mmap mode) — sections fail
	// independently, so one damaged section does not discredit the rest of
	// the file. loadErr records why
	// an on-disk index (or section) was rejected, saveErr the last persist
	// failure. deferPersist batches the per-build writes of a Prepare into
	// one (dirty remembers that something was built meanwhile).
	dir          string
	mode         store.Mode
	file         *store.File
	bad          map[store.SectionRef]bool
	loadErr      error
	saveErr      error
	deferPersist bool
	dirty        bool

	// retained pins every mmap-backed store.File whose views this cache's
	// structures may alias — including files inherited through advance,
	// because incremental repair shares untouched per-vertex slices with
	// the previous generation. Each entry owns one File reference, released
	// by a GC cleanup when the cache itself becomes unreachable, so a
	// superseded snapshot chain unmaps once its last reader lets go.
	retained []*store.File

	// Build entry points, swappable by tests that assert a warm open
	// never builds; builds counts the from-scratch constructions. buildTau
	// returns the supports alongside the decomposition — the incremental
	// repair consumes them on the next Apply. buildAllIdx is the
	// per-vertex driver (core.BuildAll): every TSD, GCT and ranking-table
	// build goes through it, one pass per Prepare. patchAllIdx is the same
	// driver's patch entry (core.PatchAll): Apply repairs every
	// ego-derived structure in one pass over the affected vertices.
	buildTau    func(*Graph) (tau, sup []int32)
	buildAllIdx func(*Graph, core.BuildTargets) *core.BuildProducts
	patchAllIdx func(g *Graph, old *core.BuildProducts, t core.BuildTargets, affected []int32) *core.BuildProducts
	builds      int
}

// trussSec addresses a truss-tagged section of the index store (the only
// kind that existed before format v2).
func trussSec(s store.Section) store.SectionRef {
	return store.SectionRef{Section: s, Measure: core.MeasureTruss}
}

// newIndexCache wires a cache to its builders and, when cfg names an
// index directory, validates any index file found there. A missing file
// is a normal cold start; a file that fails validation (stale
// fingerprint, wrong version, corruption) is recorded in loadErr — the
// typed error StoreStatus exposes — and the cache falls back to building.
func newIndexCache(g *Graph, cfg dbConfig) *indexCache {
	workers := cfg.buildWorkers
	c := &indexCache{
		g:       g,
		scorers: core.NewScorers(g),
		dir:     cfg.indexDir,
		// Cold decompositions run the parallel h-index peeling; the tau
		// array is byte-identical to the serial Decompose, and the supports
		// come back pristine so the next Apply can repair incrementally.
		buildTau: func(g *Graph) ([]int32, []int32) {
			return truss.DecomposeFull(g, workers)
		},
		buildAllIdx: func(g *Graph, t core.BuildTargets) *core.BuildProducts {
			return core.BuildAll(g, t, workers)
		},
		patchAllIdx: func(g *Graph, old *core.BuildProducts, t core.BuildTargets, affected []int32) *core.BuildProducts {
			return core.PatchAll(g, old, t, affected, workers)
		},
	}
	if cfg.storeMode == StoreDecode {
		c.mode = store.ModeDecode
	}
	if c.dir != "" {
		f, err := store.OpenFile(store.PathIn(c.dir), g, store.WithMode(c.mode))
		switch {
		case err == nil:
			c.file = f
			c.adoptFile(f)
		case errors.Is(err, fs.ErrNotExist):
			// Cold start: nothing persisted yet.
		default:
			c.loadErr = err
		}
	}
	return c
}

// adoptFile takes ownership of one reference to a mapped store file: the
// cache's structures may serve zero-copy views into it, so the mapping
// must outlive the cache. The reference is released by a GC cleanup when
// the cache becomes unreachable — never earlier, never while a snapshot
// (or a repaired descendant holding shared slices) can still read the
// views. Decode-mode files hold no mapping and need no lifecycle.
func (c *indexCache) adoptFile(f *store.File) {
	if f.Mode() != store.ModeMmap {
		return
	}
	c.retained = append(c.retained, f)
	runtime.AddCleanup(c, func(f *store.File) { f.Close() }, f)
}

// setEpoch aligns the cache with the snapshot it serves, so a persist
// records which graph version the file describes.
func (c *indexCache) setEpoch(e Epoch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = e
}

// storedEpoch reads the epoch a warm index file recorded (0 when cold,
// absent, or unreadable) — Open resumes the counter from it so epochs
// keep increasing across redeploys.
func (c *indexCache) storedEpoch() Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := loadSection(c, trussSec(store.SecEpoch), (*store.File).Epoch)
	return Epoch(ep)
}

// advance derives the next snapshot's cache from this one after an update
// batch: every index in memory is repaired incrementally against the
// shared edited graph (copy-on-write, so this cache keeps answering for
// in-flight readers). One patch pass over the affected ego-networks
// re-derives the TSD and GCT entries and every ranking table (truss
// included; each new table derives its pfree row on first use); the
// global truss decomposition is repaired by the bounded region descent
// of truss.Repair (falling back to invalidation — and a lazy parallel
// rebuild — when the affected region exceeds its budget or the supports
// were not retained). The repairs run outside the lock (they only read
// the old, now-immutable structures) so readers of this snapshot never
// block on an Apply. ctx is checked between the patch pass and the truss
// repair; a cancelled advance returns ctx.Err() and leaves this cache as
// it was. On success the index store connection moves to the new cache:
// its next persist re-derives the fingerprint from the edited graph.
// This cache stops persisting — a late lazy build on a superseded
// snapshot must not clobber newer state.
func (c *indexCache) advance(ctx context.Context, newG *Graph, ins, del []Edge) (*indexCache, *core.UpdateStats, error) {
	c.mu.Lock()
	oldG := c.g
	tau, sup := c.tau, c.sup
	old := &core.BuildProducts{TSD: c.tsd, GCT: c.gct, MeasureRanks: map[Measure][][]core.VertexScore{}}
	t := core.BuildTargets{TSD: c.tsd != nil, GCT: c.gct != nil}
	for _, m := range AllMeasures() {
		if r := c.ranked[m]; r != nil {
			old.MeasureRanks[m] = r.Rankings()
			t.Measures = append(t.Measures, m)
		}
	}
	next := &indexCache{
		g:           newG,
		scorers:     core.NewScorers(newG),
		dir:         c.dir,
		mode:        c.mode,
		buildTau:    c.buildTau,
		buildAllIdx: c.buildAllIdx,
		patchAllIdx: c.patchAllIdx,
	}
	// The repaired indexes below share every untouched per-vertex slice
	// with this cache's structures — which may be zero-copy views into a
	// mapped store file — so the next generation must pin the same
	// mappings. (The repairs themselves never write into shared storage:
	// they are copy-on-write by contract, and the mappings are PROT_READ,
	// so a regression faults loudly instead of corrupting live readers.)
	for _, f := range c.retained {
		next.adoptFile(f.Retain())
	}
	c.mu.Unlock()

	var stats *core.UpdateStats

	// Ego-derived structures: one patch pass over the vertices whose
	// ego-networks the batch touched, for every structure and measure
	// alike — so a truss table loaded from the store without its GCT
	// index survives too. next is not shared yet: no lock needed.
	if t.TSD || t.GCT || len(t.Measures) > 0 {
		affected := core.AffectedVertices(oldG, newG, ins, del)
		p := c.patchAllIdx(newG, old, t, affected)
		stats = &core.UpdateStats{Inserted: len(ins), Removed: len(del), Affected: len(affected)}
		next.tsd, next.gct = p.TSD, p.GCT
		for m, perK := range p.MeasureRanks {
			next.setRankedLocked(m, perK)
			stats.RankingsPatched++
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Global truss decomposition: bounded incremental repair. Repair
	// declines (and the decomposition is invalidated, to be rebuilt by the
	// parallel peeling on next use) when the region the batch can influence
	// exceeds the size cutoff — the cost router then prices the rebuild
	// back into the bound engine's estimate.
	if tau != nil && sup != nil {
		if rr, ok := truss.Repair(oldG, newG, tau, sup, ins, del, 0); ok {
			next.tau, next.sup = rr.Tau, rr.Sup
			if stats == nil {
				stats = &core.UpdateStats{Inserted: len(ins), Removed: len(del)}
			}
			stats.TrussRepaired = true
			stats.TrussRegion = rr.Region
		}
	}
	c.mu.Lock()
	c.dir = ""
	c.mu.Unlock()
	return next, stats, nil
}

// loadSection reads one section instance (section kind + measure tag)
// from the warm-start file, or returns the zero value when the file is
// absent or lacks the section. A damaged section records the typed error
// and is marked bad so later misses rebuild (and re-persist) instead of
// retrying a broken read; the file's other sections stay trusted — damage
// is detected and handled per section. Callers must hold c.mu.
func loadSection[T any](c *indexCache, ref store.SectionRef, read func(*store.File) (T, error)) T {
	var zero T
	if c.file == nil || !c.file.HasMeasure(ref.Section, ref.Measure) || c.bad[ref] {
		return zero
	}
	start := time.Now()
	v, err := read(c.file)
	if err != nil {
		c.loadErr = err
		if c.bad == nil {
			c.bad = make(map[store.SectionRef]bool)
		}
		c.bad[ref] = true
		return zero
	}
	c.loadTime += time.Since(start)
	return v
}

// trussTau returns the global truss decomposition, loading or computing
// (and then persisting) it on first use. The bound engine's searches read
// it through this cache, so sparsification costs one edge filter instead
// of a fresh decomposition per query.
func (c *indexCache) trussTau() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trussTauLocked()
}

func (c *indexCache) trussTauLocked() []int32 {
	if c.tau != nil {
		return c.tau
	}
	if tau := loadSection(c, trussSec(store.SecTruss), (*store.File).Tau); tau != nil {
		// Format v3 persists the supports next to the decomposition, so a
		// warm start repairs incrementally on the very first Apply. Older
		// files lack the section (sup stays nil) and the first Apply
		// rebuilds; the rebuild re-derives both and repair resumes.
		c.tau = tau
		c.sup = loadSection(c, trussSec(store.SecSupports), (*store.File).Sup)
		return c.tau
	}
	start := time.Now()
	c.tau, c.sup = c.buildTau(c.g)
	c.buildTime += time.Since(start)
	c.builds++
	c.persistAfterBuildLocked()
	return c.tau
}

func (c *indexCache) tsdIndex() *core.TSDIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tsdIndexLocked()
}

func (c *indexCache) tsdIndexLocked() *core.TSDIndex {
	if c.tsd != nil {
		return c.tsd
	}
	if idx := loadSection(c, trussSec(store.SecTSD), (*store.File).TSD); idx != nil {
		c.tsd = idx
		return c.tsd
	}
	c.buildLocked(core.BuildTargets{TSD: true})
	return c.tsd
}

func (c *indexCache) gctIndex() *core.GCTIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gctIndexLocked()
}

func (c *indexCache) gctIndexLocked() *core.GCTIndex {
	if c.gct != nil {
		return c.gct
	}
	if idx := loadSection(c, trussSec(store.SecGCT), (*store.File).GCT); idx != nil {
		c.gct = idx
		return c.gct
	}
	c.buildLocked(core.BuildTargets{GCT: true})
	return c.gct
}

// rankedTable returns measure m's per-k ranking table (the hybrid
// engine's for the truss measure): from memory, else loaded from the
// index store's measure-tagged rankings section, else — only when build
// is set — built from the graph (one BuildAll pass) and persisted.
// Without build, a cold cache returns nil and the caller falls back to
// scanning.
func (c *indexCache) rankedTable(m Measure, build bool) *core.Ranked {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rankedLocked(m.Normalize(), build)
}

func (c *indexCache) rankedLocked(m Measure, build bool) *core.Ranked {
	if r := c.ranked[m]; r != nil {
		return r
	}
	ref := store.SectionRef{Section: store.SecRankings, Measure: m}
	if perK := loadSection(c, ref, func(f *store.File) ([][]core.VertexScore, error) {
		return f.MeasureRankings(m)
	}); perK != nil {
		return c.setRankedLocked(m, perK)
	}
	if !build {
		return nil
	}
	c.buildLocked(core.BuildTargets{Measures: []Measure{m}})
	return c.ranked[m]
}

// setRankedLocked adopts perK as measure m's table, bound to the cache's
// shared scorer of m.
func (c *indexCache) setRankedLocked(m Measure, perK [][]core.VertexScore) *core.Ranked {
	if c.ranked == nil {
		c.ranked = make(map[core.Measure]*core.Ranked, len(c.scorers))
	}
	r := core.NewRanked(c.scorers[m], perK)
	c.ranked[m] = r
	return r
}

func (c *indexCache) hasRanked(m Measure) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ranked[m.Normalize()] != nil
}

// onDiskRanked reports whether measure m's ranking table can be loaded
// from the warm-start file.
func (c *indexCache) onDiskRanked(m Measure) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.availLocked(store.SectionRef{Section: store.SecRankings, Measure: m.Normalize()})
}

// availLocked reports whether section ref can be loaded from the
// warm-start file: present and not marked damaged.
func (c *indexCache) availLocked(ref store.SectionRef) bool {
	return c.file != nil && c.file.HasMeasure(ref.Section, ref.Measure) && !c.bad[ref]
}

// prepareShared is Prepare's build step: it collects every ego-derived
// structure the requested names will need that is in neither memory nor
// the warm-start file, and builds them all in one BuildAll sweep (one
// ego extraction and one truss decomposition per vertex, shared by every
// consumer). Structures found in memory or on disk are left for the
// per-name loaders, so the warm-open contract (builds == 0) and the
// per-section damage accounting are untouched.
func (c *indexCache) prepareShared(names []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var t core.BuildTargets
	if want["tsd"] && c.tsd == nil && !c.availLocked(trussSec(store.SecTSD)) {
		t.TSD = true
	}
	if want["gct"] && c.gct == nil && !c.availLocked(trussSec(store.SecGCT)) {
		t.GCT = true
	}
	for _, m := range AllMeasures() {
		// pfree answers from every measure's table (its k = 0 row).
		if (want[rankedEngineName(m)] || want["pfree"]) && c.ranked[m] == nil &&
			!c.availLocked(store.SectionRef{Section: store.SecRankings, Measure: m}) {
			t.Measures = append(t.Measures, m)
		}
	}
	if t.TSD || t.GCT || len(t.Measures) > 0 {
		c.buildLocked(t)
	}
}

// buildLocked builds targets t from scratch in one BuildAll pass, adopts
// the products (each counted as one build) and persists them. It is the
// only TSD, GCT and ranking-table build path. Callers must hold c.mu.
func (c *indexCache) buildLocked(t core.BuildTargets) {
	start := time.Now()
	p := c.buildAllIdx(c.g, t)
	c.buildTime += time.Since(start)
	if t.TSD {
		c.tsd = p.TSD
		c.builds++
	}
	if t.GCT {
		c.gct = p.GCT
		c.builds++
	}
	for _, m := range t.Measures {
		c.setRankedLocked(m, p.MeasureRanks[m])
		c.builds++
	}
	c.persistAfterBuildLocked()
}

// persistAfterBuildLocked is the write path of every from-scratch build:
// it persists immediately, unless a surrounding Prepare deferred the
// writes to batch them into one file rewrite at its end.
func (c *indexCache) persistAfterBuildLocked() {
	if c.deferPersist {
		c.dirty = true
		return
	}
	c.persistLocked()
}

// beginDeferredPersist suspends the per-build persists (Prepare builds up
// to four accelerators; rewriting the file after each would serialize the
// whole store four times); endDeferredPersist flushes once if anything
// was built in between.
func (c *indexCache) beginDeferredPersist() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deferPersist = true
	c.dirty = false
}

func (c *indexCache) endDeferredPersist() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deferPersist = false
	if c.dirty {
		c.dirty = false
		c.persistLocked()
	}
}

// persistLocked rewrites the index file with every section currently in
// memory, first hydrating sections that exist only on disk so a partial
// rebuild never sheds them. Persist failures are recorded for StoreStatus
// but do not fail the query whose build triggered the write. Callers must
// hold c.mu.
func (c *indexCache) persistLocked() {
	if c.dir == "" {
		return
	}
	if c.file != nil {
		if c.tau == nil {
			c.tau = loadSection(c, trussSec(store.SecTruss), (*store.File).Tau)
			if c.sup == nil {
				c.sup = loadSection(c, trussSec(store.SecSupports), (*store.File).Sup)
			}
		}
		if c.tsd == nil {
			c.tsd = loadSection(c, trussSec(store.SecTSD), (*store.File).TSD)
		}
		if c.gct == nil {
			c.gct = loadSection(c, trussSec(store.SecGCT), (*store.File).GCT)
		}
		for _, m := range core.AllMeasures() {
			c.rankedLocked(m, false)
		}
	}
	ix := store.Indexes{Tau: c.tau, Sup: c.sup, TSD: c.tsd, GCT: c.gct, Epoch: uint64(c.epoch)}
	if len(c.ranked) > 0 {
		ix.MeasureRankings = make(map[core.Measure][][]core.VertexScore, len(c.ranked))
		for m, r := range c.ranked {
			ix.MeasureRankings[m] = r.Rankings()
		}
	}
	path := store.PathIn(c.dir)
	if err := store.Save(path, c.g, ix); err != nil {
		c.saveErr = err
		return
	}
	c.saveErr = nil
	if f, err := store.OpenFile(path, c.g, store.WithMode(c.mode)); err == nil {
		c.file = f
		c.adoptFile(f)
		c.bad = nil // the rewrite replaced any damaged section
	}
}

func (c *indexCache) hasTau() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tau != nil
}

func (c *indexCache) hasTSD() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tsd != nil
}

func (c *indexCache) hasGCT() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gct != nil
}

// onDisk reports whether truss section s can be loaded from the
// warm-start file — the "cheap to have" signal the cost estimates use. A
// section that failed to load is not cheap: it will be rebuilt.
func (c *indexCache) onDisk(s store.Section) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.availLocked(trussSec(s))
}

// storeMmap reports whether the warm-start file serves zero-copy views; a
// "load" is then O(n) slice-header surgery over the mapping instead of an
// O(m) read-and-decode, and the cost estimates price it accordingly.
func (c *indexCache) storeMmap() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file != nil && c.file.Mode() == store.ModeMmap
}

// --- online (Algorithm 3) ---

type onlineEngine struct {
	eng    *core.Online
	scorer *core.Scorer // the snapshot's truss scorer (point queries)
	w      workload
}

func (e *onlineEngine) Name() string { return "online" }

// Measures: the online scan is measure-generic — it plugs in whichever
// scorer the query's measure names.
func (e *onlineEngine) Measures() []Measure { return AllMeasures() }

// TopR keeps the fixed-k contract: core.Online's k = 0 scan is served
// through the pfree engine.
func (e *onlineEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := core.CheckThreshold(q.K); err != nil {
		return nil, nil, err
	}
	return e.eng.Search(ctx, q.params())
}

func (e *onlineEngine) Score(ctx context.Context, v, k int32) (int, error) {
	return scorePoint(ctx, e.scorer, v, k)
}

func (e *onlineEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	return contextsPoint(ctx, e.scorer, v, k)
}

func (e *onlineEngine) Cost(q Query) Estimate {
	return Estimate{Query: e.w.searchWork(e.w.egoWork, q) + e.w.contextWork(q)}
}

// --- bound (Algorithm 4) ---

type boundEngine struct {
	eng    *core.Bound
	scorer *core.Scorer // the snapshot's truss scorer (point queries)
	cache  *indexCache
	w      workload
}

func newBoundEngine(g *Graph, w workload, cache *indexCache) *boundEngine {
	// The searcher reads the global truss decomposition through the DB
	// cache, so the per-query sparsification cost is one edge filter once
	// the decomposition is cached (or loaded from the index store).
	return &boundEngine{
		eng:    core.NewBoundWithTau(g, cache.trussTau),
		scorer: cache.scorers[MeasureTruss],
		cache:  cache,
		w:      w,
	}
}

func (e *boundEngine) Name() string { return "bound" }

// Measures: the bound framework serves every measure — each supplies its
// own upper bound (core.MeasureUpperBound) to the same ranked scan.
func (e *boundEngine) Measures() []Measure { return AllMeasures() }

func (e *boundEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return e.eng.Search(ctx, q.params())
}

func (e *boundEngine) Score(ctx context.Context, v, k int32) (int, error) {
	return scorePoint(ctx, e.scorer, v, k)
}

func (e *boundEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	return contextsPoint(ctx, e.scorer, v, k)
}

func (e *boundEngine) Cost(q Query) Estimate {
	if m := q.Measure.Normalize(); m != MeasureTruss {
		// The non-truss bound pass replaces sparsification with one
		// triangle count over the full graph (the per-vertex ego-edge
		// input of the measure's upper bound), then prunes the same way.
		triangles := e.w.m * e.w.avgDeg / 2
		return Estimate{Query: triangles + e.w.searchWork(e.w.egoWork, q)/8 + e.w.contextWork(q)}
	}
	// Sparsification needs the global truss decomposition: a fresh
	// decomposition when nothing is cached, a sequential O(m) load when
	// the index store has it, and only the edge filter once in memory.
	sparsify := e.w.m * e.w.avgDeg / 2
	if e.cache.hasTau() {
		sparsify = e.w.m
	} else if e.cache.onDisk(store.SecTruss) {
		sparsify = 2 * e.w.m
		if e.cache.storeMmap() {
			// The decomposition is an O(1) view into the mapping; only the
			// per-query edge filter remains.
			sparsify = e.w.m
		}
	}
	return Estimate{Query: sparsify + e.w.searchWork(e.w.egoWork, q)/8 + e.w.contextWork(q)}
}

// --- tsd (Algorithms 5-6) ---

type tsdEngine struct {
	cache *indexCache
	w     workload
}

func (e *tsdEngine) Name() string { return "tsd" }

// Measures: the TSD forest encodes trussness weights — truss only.
func (e *tsdEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *tsdEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// TSD.Search scores through goroutine-private TSDScorers, so
	// concurrent searches over the shared index need no serialization.
	return core.NewTSD(e.cache.tsdIndex()).Search(ctx, q.params())
}

func (e *tsdEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return 0, err
	}
	// A fresh scorer per point query keeps this path concurrency-safe
	// (TSDIndex.Score itself shares scratch across calls).
	return e.cache.tsdIndex().Scorer().Score(v, k), nil
}

func (e *tsdEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return nil, err
	}
	return e.cache.tsdIndex().Contexts(v, k), nil
}

func (e *tsdEngine) Cost(q Query) Estimate {
	est := Estimate{Query: e.w.searchWork(e.w.m, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	if !e.cache.hasTSD() {
		if e.cache.onDisk(store.SecTSD) {
			// Deserializing is a sequential O(m) read — or O(n) slice-header
			// surgery under mmap — far below the Σd² build, so routing
			// treats a persisted index as nearly ready.
			est.Build = e.w.m
			if e.cache.storeMmap() {
				est.Build = e.w.n
			}
		} else {
			est.Build = e.w.egoWork
		}
	}
	return est
}

// --- gct (Algorithms 7-8) ---

type gctEngine struct {
	cache *indexCache
	w     workload
}

func (e *gctEngine) Name() string { return "gct" }

// Measures: the supernode compression encodes trussness — truss only.
func (e *gctEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *gctEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return core.NewGCT(e.cache.gctIndex()).Search(ctx, q.params())
}

func (e *gctEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return 0, err
	}
	return e.cache.gctIndex().Score(v, k), nil
}

func (e *gctEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return nil, err
	}
	return e.cache.gctIndex().Contexts(v, k), nil
}

func (e *gctEngine) Cost(q Query) Estimate {
	// Exact scores are O(log d(v)) reads, so a query is ~n work.
	est := Estimate{Query: e.w.searchWork(e.w.n, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	if !e.cache.hasGCT() {
		if e.cache.onDisk(store.SecGCT) {
			// A persisted index loads in one O(m) sequential read, or O(n)
			// view construction under mmap.
			est.Build = e.w.m
			if e.cache.storeMmap() {
				est.Build = e.w.n
			}
		} else {
			// The GCT build does slightly more work than TSD's
			// (compression on top of the same per-ego decompositions).
			est.Build = 1.2 * e.w.egoWork
		}
	}
	return est
}

// --- hybrid / comp / kcore: the per-measure ranking tables ---

// rankedEngine serves one measure's per-k ranking table: catalogued as
// hybrid (truss — the paper's Exp-4 competitor, whose table is by Lemma 3
// the truss row of the per-measure rankings), comp (component), and kcore
// (core). It serves its own measure only. Once the table is ready
// (Prepare, a Batch that routes here, or an index store holding the
// measure's rankings section) a top-r query is an O(r) prefix read plus
// online context recovery; point queries borrow the snapshot's scorer of
// the measure. Without a table, hybrid builds it on first use, while
// comp/kcore answer by the online scan — byte-identical answers either
// way.
type rankedEngine struct {
	name      string
	measure   Measure
	coldBuild bool // build the table on a cold query instead of scanning
	online    *core.Online
	cache     *indexCache
	w         workload
}

func (e *rankedEngine) Name() string { return e.name }

// Measures: exactly the one diversity definition the table ranks by.
func (e *rankedEngine) Measures() []Measure { return []Measure{e.measure} }

func (e *rankedEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// An empty Measure means the engine's native one.
	if m := q.Measure.Normalize(); q.Measure != "" && m != e.measure {
		return nil, nil, &UnsupportedMeasureError{Engine: e.name, Measure: m}
	}
	// The table's k = 0 row is served through the pfree engine.
	if err := core.CheckThreshold(q.K); err != nil {
		return nil, nil, err
	}
	p := q.params()
	p.Measure = e.measure
	if r := e.cache.rankedTable(e.measure, e.coldBuild); r != nil {
		return r.Search(ctx, p)
	}
	return e.online.Search(ctx, p)
}

func (e *rankedEngine) Score(ctx context.Context, v, k int32) (int, error) {
	return scorePoint(ctx, e.cache.scorers[e.measure], v, k)
}

func (e *rankedEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	return contextsPoint(ctx, e.cache.scorers[e.measure], v, k)
}

func (e *rankedEngine) Cost(q Query) Estimate {
	// With the table ready the query is an O(r) prefix read plus
	// per-answer context recovery. A cold table build is slightly more
	// than one online scan (it scores every k, not one), so a single cold
	// query routes to online/bound while batches amortize the build here —
	// Batch prepares the table before running when it picks this engine.
	return Estimate{
		Build: rankedBuildCost(e.cache, e.w, e.measure),
		Query: float64(q.R) + e.w.contextWork(q),
	}
}

// rankedBuildCost prices readying measure m's per-k ranking table, the
// one build the ranked engines and pfree share: nothing once it is in
// memory, one cheap sequential load when the index store holds it, else
// one BuildAll pass — truss and core tables need a decomposition plus one
// component count per k, the component table one labelling.
func rankedBuildCost(c *indexCache, w workload, m Measure) float64 {
	switch {
	case c.hasRanked(m):
		return 0
	case c.onDiskRanked(m):
		return w.n
	case m.Normalize() == MeasureComponent:
		return 1.25 * w.egoWork
	}
	return 1.5 * w.egoWork
}

// rankedEngineName names the ranked engine serving measure m's table.
func rankedEngineName(m Measure) string {
	switch m.Normalize() {
	case MeasureComponent:
		return "comp"
	case MeasureCore:
		return "kcore"
	}
	return "hybrid"
}

// scorePoint answers a single-vertex score through a shared scorer.
func scorePoint(ctx context.Context, s *core.Scorer, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, s.Graph(), v, k); err != nil {
		return 0, err
	}
	return s.Score(v, k), nil
}

// contextsPoint answers a single-vertex contexts query through a shared
// scorer.
func contextsPoint(ctx context.Context, s *core.Scorer, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, s.Graph(), v, k); err != nil {
		return nil, err
	}
	return s.Contexts(v, k), nil
}

// singleVertexErr folds the context check into single-vertex validation.
func singleVertexErr(ctx context.Context, g *Graph, v, k int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return checkVertex(g, v, k)
}

// --- pfree (parameter-free diversity, arXiv:1908.11612) ---

// pfreeEngine serves the parameter-free query: the only engine that
// serves queries without a K, and the only one k-less queries route to.
// It serves every measure from the measure's per-k ranking table, whose
// k = 0 row is the pfree ranking (derived once per table on first use):
// once the table is in memory (Prepare("pfree") or the measure's own
// engine, an Apply that patched it) or in the index store, a k-less
// top-r query is an O(r) prefix read; cold, it falls back to the online
// all-k scan. Same shape as rankedEngine, byte-identical answers either
// way.
type pfreeEngine struct {
	w      workload
	online *core.Online
	cache  *indexCache
}

func (e *pfreeEngine) Name() string { return "pfree" }

// Measures: the parameter-free objective aggregates any measure's per-k
// score vector, so all three qualify.
func (e *pfreeEngine) Measures() []Measure { return AllMeasures() }

func (e *pfreeEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if q.K != 0 {
		return nil, nil, pfreeKErr(q.K)
	}
	p := q.params()
	p.Measure = q.Measure.Normalize()
	if r := e.cache.rankedTable(p.Measure, false); r != nil {
		return r.Search(ctx, p)
	}
	return e.online.Search(ctx, p)
}

// pfreeKErr rejects a threshold given to the parameter-free engine.
func pfreeKErr(k int32) error {
	return &BadQueryError{Engine: "pfree", K: k,
		Reason: "engine is parameter-free: leave k unset (0)"}
}

// pfreeScorer validates a parameter-free point query — a known measure,
// v in range, k left at 0 — and returns the snapshot's shared scorer of
// the measure, whose threshold 0 is the parameter-free score.
func pfreeScorer(ctx context.Context, c *indexCache, v, k int32, m Measure) (*core.Scorer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !m.Valid() {
		_, err := ParseMeasure(string(m))
		return nil, err
	}
	if v < 0 || int(v) >= c.g.N() {
		return nil, fmt.Errorf("trussdiv: vertex %d out of range [0,%d)", v, c.g.N())
	}
	if k != 0 {
		return nil, pfreeKErr(k)
	}
	return c.scorers[m.Normalize()], nil
}

// Score returns the parameter-free diversity of one vertex under the
// truss measure (the default measure, as on every point path); k must
// be 0.
func (e *pfreeEngine) Score(ctx context.Context, v, k int32) (int, error) {
	s, err := pfreeScorer(ctx, e.cache, v, k, MeasureTruss)
	if err != nil {
		return 0, err
	}
	return s.Score(v, 0), nil
}

// Contexts returns the vertex's contexts at its discriminating level
// k* = max(score, 2) under the truss measure; k must be 0.
func (e *pfreeEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	s, err := pfreeScorer(ctx, e.cache, v, k, MeasureTruss)
	if err != nil {
		return nil, err
	}
	return s.Contexts(v, 0), nil
}

func (e *pfreeEngine) Cost(q Query) Estimate {
	// Ready: an O(r) prefix read plus context recovery — contexts cost two
	// ego decompositions per answer vertex (level probe + recovery). A
	// table in memory needs no build (its pfree row is an O(n + table)
	// pass on first use); otherwise the measure's table is readied exactly
	// as its own ranked engine would, amortized by Batch the same way.
	return Estimate{
		Build: rankedBuildCost(e.cache, e.w, q.Measure),
		Query: float64(q.R) + 2*e.w.contextWork(q),
	}
}
