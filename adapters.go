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
// ranking tables — among the engines of one DB snapshot, along
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
	tsd       *core.TSDIndex
	gct       *core.GCTIndex
	ranked    map[core.Measure]*core.Ranked // ranking tables (truss = hybrid; row 0 is pfree)
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
	// never builds; builds counts the from-scratch constructions.
	// buildAllIdx is the per-vertex driver (core.BuildAll): every TSD, GCT
	// and ranking-table build goes through it, one pass per readyLocked.
	// patchAllIdx is the same driver's patch entry (core.PatchAll): Apply
	// repairs every ego-derived structure in one pass over the affected
	// vertices. All three use GOMAXPROCS workers; their products are
	// byte-identical for every worker count.
	buildTau    func(*Graph) []int32
	buildAllIdx func(*Graph, core.BuildTargets) *core.BuildProducts
	patchAllIdx func(g *Graph, old *core.BuildProducts, t core.BuildTargets, affected []int32, s *core.PassScratch) *core.BuildProducts
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
// AllMeasures order).
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
		// array is byte-identical to the serial Decompose.
		buildTau: func(g *Graph) []int32 {
			return truss.DecomposeParallel(g, 0)
		},
		buildAllIdx: func(g *Graph, t core.BuildTargets) *core.BuildProducts {
			return core.BuildAll(g, t, 0)
		},
		patchAllIdx: func(g *Graph, old *core.BuildProducts, t core.BuildTargets, affected []int32, s *core.PassScratch) *core.BuildProducts {
			return core.PatchAll(g, old, t, affected, 0, s)
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
// and GCT entries and every ranking table in memory (truss included, and
// each table's pfree row 0 with it), copy-on-write against the
// shared edited graph, so this cache keeps answering for in-flight
// readers. The global truss decomposition is never carried over: the
// next cache starts with it cold, and the first bound query of the new
// epoch rebuilds it once with the parallel peeling
// (truss.DecomposeParallel), a cost the router prices into bound's
// estimate.
// The patch pass runs outside the lock (it only reads the old,
// now-immutable structures) so readers of this snapshot never block on an
// Apply. ctx is checked after the patch pass; a cancelled advance returns
// ctx.Err() and leaves this cache as it was. On success the index store
// connection moves to the new cache: its next persist re-derives the
// fingerprint from the edited graph. This cache stops persisting — a late
// lazy build on a superseded snapshot must not clobber newer state.
func (c *indexCache) advance(ctx context.Context, newG *Graph, ins, del []Edge, scratch *core.PassScratch) (*indexCache, *core.UpdateStats, error) {
	c.mu.Lock()
	// A warm-opened cache holds the sections no query has loaded yet only
	// in its file, which describes the old graph and so is not handed to
	// next: load every ego-derived one now so the patch pass carries it.
	for _, ref := range cacheSections {
		if ref.Section != store.SecTruss {
			c.loadLocked(ref)
		}
	}
	oldG := c.g
	old := &core.BuildProducts{TSD: c.tsd, GCT: c.gct, MeasureRanks: map[Measure]core.RankTable{}}
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
		p := c.patchAllIdx(newG, old, t, affected, scratch)
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
		c.tau = loadSection(c, ref, (*store.File).Tau)
		return c.tau != nil
	case store.SecTSD:
		c.tsd = loadSection(c, ref, (*store.File).TSD)
		return c.tsd != nil
	case store.SecGCT:
		c.gct = loadSection(c, ref, (*store.File).GCT)
		return c.gct != nil
	}
	perK := loadSection(c, ref, func(f *store.File) (core.RankTable, error) {
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
		c.tau = c.buildTau(c.g)
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
// use. The snapshot's Bound reads it through this cache, so its levels
// are filtered from one decomposition instead of a fresh one per level.
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
func (c *indexCache) setRankedLocked(m Measure, perK core.RankTable) *core.Ranked {
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
	ix := store.Indexes{Tau: c.tau, TSD: c.tsd, GCT: c.gct, Epoch: uint64(c.epoch)}
	if len(c.ranked) > 0 {
		ix.MeasureRankings = make(map[core.Measure]core.RankTable, len(c.ranked))
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

// The four engine constructors below fill in the catalogue: each
// returns an entry that knows how to search and how to price a query;
// the entry itself checks the query and the context.

// onlineEngine catalogues the online scan (Algorithm 3). It is
// measure-generic: it plugs in whichever scorer the query's measure names.
func (s *Snapshot) onlineEngine(online *core.Online) catalogueEntry {
	w := s.w
	return catalogueEntry{name: "online", measures: AllMeasures(), search: online.Search,
		cost: func(q Query) Estimate {
			return Estimate{Query: w.searchWork(w.egoWork, q) + w.contextWork(q)}
		}}
}

// boundEngine catalogues the pruned scan (Algorithm 4). It serves every
// measure — each supplies its own upper bound (core.MeasureUpperBound) to
// the same ranked scan. The snapshot's Bound reads the global truss
// decomposition through the cache and keeps each threshold's bound
// inputs (degrees and triangle counts) from the first query that needs
// them, so later queries at that k pay only the candidates' bounds and
// the ranked scan.
func (s *Snapshot) boundEngine() catalogueEntry {
	c, w, ref := s.cache, s.w, trussSec(store.SecTruss)
	return catalogueEntry{name: "bound", measures: AllMeasures(), needs: []store.SectionRef{ref},
		search: s.bound.Search,
		// The estimate charges every query the build of its level, though
		// only the first query at a k pays it: it does not yet see which
		// levels are built, so routing is what it was before levels were
		// kept.
		cost: func(q Query) Estimate {
			if m := q.Measure.Normalize(); m != MeasureTruss {
				// The non-truss level is one triangle count over the full
				// graph (the per-vertex ego-edge input of the measure's upper
				// bound); the search then prunes the same way.
				triangles := w.m * w.avgDeg / 2
				return Estimate{Query: triangles + w.searchWork(w.egoWork, q)/8 + w.contextWork(q)}
			}
			// A truss level filters the global truss decomposition: a fresh
			// decomposition when it is cold, a sequential O(m) load when the
			// index store has it, and only the edge filter once in memory — or
			// under mmap, where the decomposition is an O(1) view into the
			// mapping.
			sparsify := w.m
			switch c.state(ref) {
			case secCold:
				sparsify = w.m * w.avgDeg / 2
			case secDecode:
				sparsify = 2 * w.m
			}
			return Estimate{Query: sparsify + w.searchWork(w.egoWork, q)/8 + w.contextWork(q)}
		}}
}

// indexEngine catalogues one of the paper's index engines, tsd
// (Algorithms 5-6) or gct (Algorithms 7-8), over truss section sec. Both
// encode trussness, so they serve the truss measure only. A query costs
// perQuery work over the whole graph, scaled to its candidates, plus one
// average neighborhood per answer for contexts. Readying the index costs
// coldBuild from the graph; deserializing is a sequential O(m) read — or
// O(n) slice-header surgery under mmap — far below the Σd² build, so
// routing treats a persisted index as nearly ready.
func (s *Snapshot) indexEngine(name string, sec store.Section, perQuery, coldBuild float64,
	search func(context.Context, core.Params) (*Result, *Stats, error)) catalogueEntry {
	c, w, ref := s.cache, s.w, trussSec(sec)
	return catalogueEntry{name: name, measures: []Measure{MeasureTruss}, needs: []store.SectionRef{ref}, search: search,
		cost: func(q Query) Estimate {
			est := Estimate{Query: w.searchWork(perQuery, q)}
			if q.IncludeContexts {
				est.Query += float64(q.R) * w.avgDeg
			}
			switch c.state(ref) {
			case secCold:
				est.Build = coldBuild
			case secDecode:
				est.Build = w.m
			case secMmap:
				est.Build = w.n
			}
			return est
		}}
}

// tableEngine catalogues an engine over the per-measure ranking tables
// of ms. hybrid (truss — the paper's Exp-4 competitor, whose table is by
// Lemma 3 the truss row of the per-measure rankings), comp (component)
// and kcore (core) each serve their own measure at a fixed k. The kless
// pfree engine (arXiv:1908.11612) serves every measure from the
// parameter-free row 0 of its table. Once a table is ready (Prepare, a
// Batch that routes here, an Apply that patched it, or an index store
// holding the measure's rankings section) a query is an O(r) prefix read
// plus online context recovery. Only hybrid builds a cold table on first
// use; the others answer by the online scan — byte-identical answers
// either way.
func (s *Snapshot) tableEngine(name string, online *core.Online, kless bool, ms ...Measure) catalogueEntry {
	c, w := s.cache, s.w
	e := catalogueEntry{name: name, measures: ms, kless: kless}
	for _, m := range ms {
		e.needs = append(e.needs, rankSec(m))
	}
	build := name == "hybrid"
	e.search = func(ctx context.Context, p core.Params) (*Result, *Stats, error) {
		if r := c.rankedTable(p.Measure, build); r != nil {
			return r.Search(ctx, p)
		}
		return online.Search(ctx, p)
	}
	// Context recovery costs one ego decomposition per answer vertex, two
	// for pfree (level probe + recovery).
	recoveries := 1.0
	if kless {
		recoveries = 2
	}
	e.cost = func(q Query) Estimate {
		// An engine serving one measure prices its own table whatever the
		// query asks; pfree prices the table of the query's measure.
		m := q.Measure.Normalize()
		if len(ms) == 1 {
			m = ms[0]
		}
		// Readying the table costs nothing once it is in memory, one cheap
		// sequential load when the index store holds it, else one BuildAll
		// pass — slightly more than one online scan, since it scores every
		// k, so a single cold query routes to online/bound while batches
		// amortize the build here. Truss and core tables need a
		// decomposition plus one component count per k, the component
		// table one labelling.
		est := Estimate{Query: float64(q.R) + recoveries*w.contextWork(q)}
		switch c.state(rankSec(m)) {
		case secDecode, secMmap:
			est.Build = w.n
		case secCold:
			est.Build = 1.5 * w.egoWork
			if m == MeasureComponent {
				est.Build = 1.25 * w.egoWork
			}
		}
		return est
	}
	return e
}
