package trussdiv

import (
	"container/list"
	"maps"
	"slices"
	"sync"
)

// resultCache memoizes TopR answers at the serving layer. Entries are
// keyed by the full query identity PLUS the epoch of the snapshot that
// answered, so Apply invalidates the whole cache for free: the new
// snapshot's queries carry the new epoch and can never match an entry
// computed over the old graph, while a reader holding a pinned old
// Snapshot keeps hitting (or recomputing) its own epoch's entries and is
// never served a newer graph's answer. Apply additionally purges
// entries below the new epoch so a retired graph's answers do not sit in
// the LRU evicting live ones.
//
// Candidate sets are hashed into the key and stored verbatim: a hit
// requires the stored set to compare equal element-by-element, so a hash
// collision can cost a miss but never a wrong answer.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recent; values are *resultEntry
	entries map[resultKey]*list.Element

	hits, misses, invalidated uint64
	// Per-engine split of the same lookups, keyed by the resolved engine
	// name of the key — allocated lazily on first count.
	hitsByEngine, missesByEngine map[string]uint64
}

// resultKey identifies one cacheable query: the answering snapshot's
// epoch, the resolved engine, and every answer-shaping Query field.
// Workers is deliberately absent — answers are byte-identical for every
// worker count — and so is SkipStats: every engine records its Stats
// alongside the Result, and TopR drops them on the way out, so a query
// asked with and without stats (a /topr request and the same query in a
// /batch) shares one entry. A parameter-free query keys as k = 0: every
// fixed-k query that reaches the cache has k >= 2, so the two never
// collide.
type resultKey struct {
	epoch    Epoch
	engine   string
	measure  Measure
	k        int32
	r        int
	contexts bool
	hasCands bool
	nCands   int
	candHash uint64
}

type resultEntry struct {
	key   resultKey
	cands []int32 // the exact candidate set, for collision-proof hits
	res   *Result
	stats *Stats
}

// resultCacheDefaultCap bounds the LRU when Open is not given
// WithResultCache. Entries are small (r VertexScores plus optional
// contexts), so a few hundred covers a dashboard's working set.
const resultCacheDefaultCap = 512

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[resultKey]*list.Element),
	}
}

// resultCacheKey builds the cache key for q as answered by engine on the
// snapshot at epoch.
func resultCacheKey(epoch Epoch, engine string, q Query) resultKey {
	key := resultKey{
		epoch:    epoch,
		engine:   engine,
		measure:  q.Measure.Normalize(),
		k:        q.K,
		r:        q.R,
		contexts: q.IncludeContexts,
		hasCands: q.Candidates != nil,
		nCands:   len(q.Candidates),
	}
	if key.hasCands {
		// FNV-1a over the candidate IDs; collisions are tolerable (the
		// stored set is compared exactly) but should be rare.
		h := uint64(14695981039346656037)
		for _, v := range q.Candidates {
			h ^= uint64(uint32(v))
			h *= 1099511628211
		}
		key.candHash = h
	}
	return key
}

// get returns the cached answer for key, verifying the candidate set
// exactly. The Result is the stored pointer (treat results as
// immutable); the Stats is a copy the caller may stamp freely.
func (c *resultCache) get(key resultKey, cands []int32) (*Result, *Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*resultEntry)
		if slices.Equal(e.cands, cands) {
			c.lru.MoveToFront(el)
			c.hits++
			c.countByEngine(&c.hitsByEngine, key.engine)
			var stats *Stats
			if e.stats != nil {
				cp := *e.stats
				stats = &cp
			}
			return e.res, stats, true
		}
	}
	c.misses++
	c.countByEngine(&c.missesByEngine, key.engine)
	return nil, nil, false
}

// countByEngine bumps one engine's counter in a lazily allocated map.
// Callers must hold c.mu.
func (c *resultCache) countByEngine(m *map[string]uint64, engine string) {
	if *m == nil {
		*m = make(map[string]uint64)
	}
	(*m)[engine]++
}

// put records a computed answer, evicting the least recently used entry
// past capacity. The candidate slice is copied — callers may reuse
// theirs.
func (c *resultCache) put(key resultKey, cands []int32, res *Result, stats *Stats) {
	var statsCopy *Stats
	if stats != nil {
		cp := *stats
		statsCopy = &cp
	}
	e := &resultEntry{key: key, res: res, stats: statsCopy}
	if cands != nil {
		e.cands = append([]int32(nil), cands...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		delete(c.entries, oldest.Value.(*resultEntry).key)
		c.lru.Remove(oldest)
	}
}

// invalidateBelow drops every entry whose epoch is below the given one —
// the Apply hook. Entries AT the epoch survive (there are none when the
// epoch is brand new, but the call is idempotent).
func (c *resultCache) invalidateBelow(epoch Epoch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*resultEntry); e.key.epoch < epoch {
			delete(c.entries, e.key)
			c.lru.Remove(el)
			c.invalidated++
		}
		el = next
	}
}

// ResultCacheStats is a point-in-time view of the serving-side result
// cache; see DB.ResultCacheStats.
type ResultCacheStats struct {
	// Enabled is false when Open disabled the cache
	// (WithResultCache(0)); the counters are then all zero.
	Enabled bool
	// Hits and Misses count lookups; Invalidated counts entries purged
	// by Apply's epoch bump (LRU evictions are not counted).
	Hits, Misses, Invalidated uint64
	// HitsByEngine and MissesByEngine split the same lookups by the
	// engine the query resolved to (nil until the first lookup).
	HitsByEngine, MissesByEngine map[string]uint64
	// Size and Capacity describe the LRU: live entries and the bound.
	Size, Capacity int
}

func (c *resultCache) statsSnapshot() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Enabled:        true,
		Hits:           c.hits,
		Misses:         c.misses,
		Invalidated:    c.invalidated,
		HitsByEngine:   maps.Clone(c.hitsByEngine),
		MissesByEngine: maps.Clone(c.missesByEngine),
		Size:           c.lru.Len(),
		Capacity:       c.cap,
	}
}
