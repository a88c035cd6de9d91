package trussdiv

import (
	"context"
	"errors"
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
	sup       []int32 // pristine edge supports matching tau (nil when a pre-v3 store supplied tau)
	tsd       *core.TSDIndex
	gct       *core.GCTIndex
	ranked    map[core.Measure]*core.Ranked // per-k ranking tables (truss = hybrid; k = 0 is pfree)
	buildTime time.Duration
	loadTime  time.Duration

	// Persistence state. file is the validated warm-start file (nil on a
	// cold start); bad marks sections whose payload failed its checksum
	// (decode mode) or structural validation (mmap mode) — sections fail
	// independently, so one damaged section does not discredit the rest of
	// the file. loadErr records why an on-disk index (or section) was
	// rejected, saveErr the last persist failure.
	dir     string
	mode    store.Mode
	file    *store.File
	bad     map[store.SectionRef]bool
	loadErr error
	saveErr error

	// retained pins every mmap-backed store.File whose views this cache's
	// structures may alias — including files inherited through advance,
	// because incremental repair shares untouched per-vertex slices with
	// the previous generation. Each entry owns one File reference, released
	// by a GC cleanup when the cache itself becomes unreachable, so a
	// superseded snapshot chain unmaps once its last reader lets go.
	retained []*store.File

	// Build entry points, swappable by tests that assert a warm open
	// never builds; builds counts the from-scratch constructions. buildTau
	// returns the supports alongside the decomposition, which persist
	// next to it in the store's supports section. buildAllIdx is the
	// per-vertex driver (core.BuildAll): every TSD, GCT and ranking-table
	// build goes through it, one pass per readyLocked. patchAllIdx is the same
	// driver's patch entry (core.PatchAll): Apply repairs every
	// ego-derived structure in one pass over the affected vertices. All
	// three use GOMAXPROCS workers; their products are byte-identical for
	// every worker count.
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

// rankSec addresses measure m's per-k ranking table.
func rankSec(m Measure) store.SectionRef {
	return store.SectionRef{Section: store.SecRankings, Measure: m}
}

// cacheSections lists every section the cache holds in memory, in the
// order Prepare readies them (so a shared build names its measures in
// AllMeasures order). The supports ride along with the truss section.
var cacheSections = []store.SectionRef{
	trussSec(store.SecTruss), trussSec(store.SecTSD), trussSec(store.SecGCT),
	rankSec(MeasureTruss), rankSec(MeasureComponent), rankSec(MeasureCore),
}

// readiness is where one section of the cache stands — the one input of
// every engine's build-cost estimate.
type readiness int

const (
	secCold   readiness = iota // neither in memory nor loadable: it must be built
	secDecode                  // in the warm-start file, read and decoded on load
	secMmap                    // in the warm-start file, served as views over the mapping
	secMemory                  // in memory
)

// newIndexCache wires a cache to its builders and, when cfg names an
// index directory, validates any index file found there. A missing file
// is a normal cold start; a file that fails validation (stale
// fingerprint, wrong version, corruption) is recorded in loadErr — the
// typed error StoreStatus exposes — and the cache falls back to building.
func newIndexCache(g *Graph, cfg dbConfig) *indexCache {
	c := &indexCache{
		g:       g,
		scorers: core.NewScorers(g),
		dir:     cfg.indexDir,
		// Cold decompositions run the parallel h-index peeling; the tau
		// array is byte-identical to the serial Decompose, and the supports
		// come back pristine.
		buildTau: func(g *Graph) ([]int32, []int32) {
			return truss.DecomposeFull(g, 0)
		},
		buildAllIdx: func(g *Graph, t core.BuildTargets) *core.BuildProducts {
			return core.BuildAll(g, t, 0)
		},
		patchAllIdx: func(g *Graph, old *core.BuildProducts, t core.BuildTargets, affected []int32) *core.BuildProducts {
			return core.PatchAll(g, old, t, affected, 0)
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
// batch. One patch pass over the affected ego-networks re-derives the TSD
// and GCT entries and every ranking table in memory (truss included; each
// new table derives its pfree row on first use), copy-on-write against the
// shared edited graph, so this cache keeps answering for in-flight
// readers. The global truss decomposition and its supports are never
// carried over: the next cache starts with them cold, and the first bound
// query of the new epoch rebuilds them once with the parallel peeling
// (truss.DecomposeFull), a cost the router prices into bound's estimate. The patch pass runs outside the lock (it only reads the old,
// now-immutable structures) so readers of this snapshot never block on an
// Apply. ctx is checked after the patch pass; a cancelled advance returns
// ctx.Err() and leaves this cache as it was. On success the index store
// connection moves to the new cache: its next persist re-derives the
// fingerprint from the edited graph. This cache stops persisting — a late
// lazy build on a superseded snapshot must not clobber newer state.
func (c *indexCache) advance(ctx context.Context, newG *Graph, ins, del []Edge) (*indexCache, *core.UpdateStats, error) {
	c.mu.Lock()
	oldG := c.g
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

// state reports where section ref stands. A section that failed to load
// is cold: it will be rebuilt.
func (c *indexCache) state(ref store.SectionRef) readiness {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.inMemoryLocked(ref):
		return secMemory
	case c.file == nil || !c.file.HasMeasure(ref.Section, ref.Measure) || c.bad[ref]:
		return secCold
	case c.file.Mode() == store.ModeMmap:
		return secMmap
	}
	return secDecode
}

// inMemoryLocked reports whether section ref, one of cacheSections, is
// in memory. Callers must hold c.mu.
func (c *indexCache) inMemoryLocked(ref store.SectionRef) bool {
	switch ref.Section {
	case store.SecTruss:
		return c.tau != nil
	case store.SecTSD:
		return c.tsd != nil
	case store.SecGCT:
		return c.gct != nil
	}
	return c.ranked[ref.Measure] != nil
}

// loadLocked reports whether section ref is in memory, loading it from
// the warm-start file first when it is not. It is the only code that
// knows which store.File accessor fills which field. Callers must hold
// c.mu.
func (c *indexCache) loadLocked(ref store.SectionRef) bool {
	if c.inMemoryLocked(ref) {
		return true
	}
	switch ref.Section {
	case store.SecTruss:
		// Format v3 persists the supports next to the decomposition;
		// loading them keeps a re-persist from shedding the section. Older
		// files lack it (sup stays nil).
		if c.tau = loadSection(c, ref, (*store.File).Tau); c.tau != nil {
			c.sup = loadSection(c, trussSec(store.SecSupports), (*store.File).Sup)
		}
		return c.tau != nil
	case store.SecTSD:
		c.tsd = loadSection(c, ref, (*store.File).TSD)
		return c.tsd != nil
	case store.SecGCT:
		c.gct = loadSection(c, ref, (*store.File).GCT)
		return c.gct != nil
	}
	perK := loadSection(c, ref, func(f *store.File) ([][]core.VertexScore, error) {
		return f.MeasureRankings(ref.Measure)
	})
	if perK == nil {
		return false
	}
	c.setRankedLocked(ref.Measure, perK)
	return true
}

// readyLocked brings every section of refs into memory: loaded from the
// warm-start file where it can be, else built — the truss decomposition
// by its parallel peeling, every ego-derived structure in one shared
// BuildAll pass (one ego extraction and one decomposition per vertex,
// shared by every consumer). Each product counts as one build, and the
// store is rewritten once if anything was built. It is the only build
// path. Callers must hold c.mu.
func (c *indexCache) readyLocked(refs ...store.SectionRef) {
	var t core.BuildTargets
	tau := false
	for _, ref := range refs {
		if c.loadLocked(ref) {
			continue
		}
		switch ref.Section {
		case store.SecTruss:
			tau = true
		case store.SecTSD:
			t.TSD = true
		case store.SecGCT:
			t.GCT = true
		default:
			t.Measures = append(t.Measures, ref.Measure)
		}
	}
	ego := t.TSD || t.GCT || len(t.Measures) > 0
	if !tau && !ego {
		return
	}
	start := time.Now()
	if tau {
		c.tau, c.sup = c.buildTau(c.g)
		c.builds++
	}
	if ego {
		p := c.buildAllIdx(c.g, t)
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
	}
	c.buildTime += time.Since(start)
	c.persistLocked()
}

// ready readies refs under one lock; see readyLocked.
func (c *indexCache) ready(refs []store.SectionRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readyLocked(refs...)
}

// trussTau returns the global truss decomposition, readying it on first
// use. The bound engine's searches read it through this cache, so
// sparsification costs one edge filter instead of a fresh decomposition
// per query.
func (c *indexCache) trussTau() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readyLocked(trussSec(store.SecTruss))
	return c.tau
}

func (c *indexCache) tsdIndex() *core.TSDIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readyLocked(trussSec(store.SecTSD))
	return c.tsd
}

func (c *indexCache) gctIndex() *core.GCTIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readyLocked(trussSec(store.SecGCT))
	return c.gct
}

// builtGCT returns the GCT index when it is in memory; it never loads or
// builds.
func (c *indexCache) builtGCT() *core.GCTIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gct
}

// rankedTable returns measure m's per-k ranking table (the hybrid
// engine's for the truss measure): from memory, else loaded from the
// index store's measure-tagged rankings section, else — only when build
// is set — built from the graph and persisted. Without build, a cold
// cache returns nil and the caller falls back to scanning.
func (c *indexCache) rankedTable(m Measure, build bool) *core.Ranked {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := rankSec(m.Normalize())
	if build {
		c.readyLocked(ref)
	} else {
		c.loadLocked(ref)
	}
	return c.ranked[ref.Measure]
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

// persistLocked rewrites the index file with every section currently in
// memory, first loading sections that exist only on disk so a partial
// rebuild never sheds them. Persist failures are recorded for StoreStatus
// but do not fail the query whose build triggered the write. Callers must
// hold c.mu.
func (c *indexCache) persistLocked() {
	if c.dir == "" {
		return
	}
	for _, ref := range cacheSections {
		c.loadLocked(ref)
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

// --- online (Algorithm 3) ---

type onlineEngine struct {
	eng *core.Online
	w   workload
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

func (e *onlineEngine) Cost(q Query) Estimate {
	return Estimate{Query: e.w.searchWork(e.w.egoWork, q) + e.w.contextWork(q)}
}

// --- bound (Algorithm 4) ---

type boundEngine struct {
	eng   *core.Bound
	cache *indexCache
	w     workload
}

func (e *boundEngine) Name() string { return "bound" }

// Measures: the bound framework serves every measure — each supplies its
// own upper bound (core.MeasureUpperBound) to the same ranked scan.
func (e *boundEngine) Measures() []Measure { return AllMeasures() }

func (e *boundEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return e.eng.Search(ctx, q.params())
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
	// decomposition when it is cold, a sequential O(m) load when the index
	// store has it, and only the edge filter once in memory — or under
	// mmap, where the decomposition is an O(1) view into the mapping.
	sparsify := e.w.m
	switch e.cache.state(trussSec(store.SecTruss)) {
	case secCold:
		sparsify = e.w.m * e.w.avgDeg / 2
	case secDecode:
		sparsify = 2 * e.w.m
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

func (e *tsdEngine) Cost(q Query) Estimate {
	est := Estimate{Query: e.w.searchWork(e.w.m, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	// Deserializing is a sequential O(m) read — or O(n) slice-header
	// surgery under mmap — far below the Σd² build, so routing treats a
	// persisted index as nearly ready.
	switch e.cache.state(trussSec(store.SecTSD)) {
	case secCold:
		est.Build = e.w.egoWork
	case secDecode:
		est.Build = e.w.m
	case secMmap:
		est.Build = e.w.n
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

func (e *gctEngine) Cost(q Query) Estimate {
	// Exact scores are O(log d(v)) reads, so a query is ~n work.
	est := Estimate{Query: e.w.searchWork(e.w.n, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	// A persisted index loads in one O(m) sequential read, or O(n) view
	// construction under mmap. The build does slightly more work than
	// TSD's (compression on top of the same per-ego decompositions).
	switch e.cache.state(trussSec(store.SecGCT)) {
	case secCold:
		est.Build = 1.2 * e.w.egoWork
	case secDecode:
		est.Build = e.w.m
	case secMmap:
		est.Build = e.w.n
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
// online context recovery. Without a table, hybrid builds it on first
// use, while comp/kcore answer by the online scan — byte-identical
// answers either way.
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
	m = m.Normalize()
	switch c.state(rankSec(m)) {
	case secMemory:
		return 0
	case secDecode, secMmap:
		return w.n
	}
	if m == MeasureComponent {
		return 1.25 * w.egoWork
	}
	return 1.5 * w.egoWork
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
