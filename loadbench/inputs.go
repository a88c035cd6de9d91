package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strconv"

	"trussdiv"
)

// Every input of a run is generated here. The graph and the read key
// space are pinned, so runs with different seeds measure the same system
// on the same data; the -seed flag drives everything the clients send:
// the Zipf-skewed read request sequence, the edge-edit stream, and the
// scan queries. Each kind draws from its own stream, so the same seed gives
// the same inputs and changing one kind leaves the others alone. The
// program under test only ever receives the generated inputs.
//
// The traffic is synthetic: the mix, the skew, the key space, the write
// rate and batch, and the scan sizes below are assumptions of the
// benchmark's design, not measured traffic. README.md lists them.

// gowallaSim is the gowalla-sim dataset of the tsdbench registry (25k
// vertices, ~194k edges), restated here so the workload cannot drift
// with the registry.
var gowallaSim = trussdiv.OverlayConfig{N: 25000, Attach: 4, Cliques: 3000, MinSize: 4, MaxSize: 14,
	Window: 250, AnchorBias: 0.5, Diffuse: 500, Seed: 104}

// gowallaSimFingerprint is the fingerprint of the graph gowallaSim
// generates. Every run checks it, so a change to the generator that would
// silently alter the benchmark's input fails the benchmark instead.
const gowallaSimFingerprint = "52e9c566a05c935a43c1ddf92d24e012d33cb558d0e278ca79b99ceef18728cc"

func checkFingerprint(g *trussdiv.Graph, want string) error {
	fp := g.Fingerprint()
	if got := hex.EncodeToString(fp[:]); got != want {
		return fmt.Errorf("the input graph changed: fingerprint %s, want %s", got, want)
	}
	return nil
}

// stream returns the random source of one input kind.
func stream(seed int64, kind string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(kind))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer: nearby seeds give unrelated streams.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(x ^ (x >> 31))))
}

const (
	minK, maxK   = 3, 8 // the fixed-k thresholds every workload draws from
	maxTopR      = 200
	batchSize    = 8   // queries per POST /batch
	zipfS        = 1.1 // skew of the key popularity
	editsPerKind = 8   // inserts, and deletes, per edit batch
)

// readKind is one request type of the serve mix.
type readKind uint8

const (
	kindTopR     readKind = iota // fixed-k /topr
	kindPFree                    // k-less /topr, the parameter-free engine
	kindTopRCtx                  // /topr with contexts=true
	kindScore                    // /score
	kindContexts                 // /contexts
	kindBatch                    // POST /batch of batchSize queries
	numKinds
)

// readMix is the serve mix, in percent per kind; an assumption, like the
// rest of the traffic.
var readMix = [numKinds]int{45, 15, 8, 16, 13, 3}

var kindNames = [numKinds]string{"topr", "topr-pfree", "topr-contexts", "score", "contexts", "batch"}

// readKey is one distinct request of the serve mix: its parameters, and
// the URL (and body) that carries them.
type readKey struct {
	kind  readKind
	q     trussdiv.Query   // the top-r kinds
	batch []trussdiv.Query // kindBatch
	v, k  int32            // the point kinds; k = 0 is parameter-free
	m     trussdiv.Measure // the point kinds
	url   *url.URL
	body  []byte // kindBatch
}

func (k *readKey) method() string {
	if k.kind == kindBatch {
		return "POST"
	}
	return "GET"
}

// readSet is the serve workload's key space and its request sequence.
type readSet struct {
	keys [numKinds][]readKey
	seq  []readRef
}

type readRef struct {
	kind readKind
	idx  int32
}

// key returns request i of the sequence, which wraps if a run outlasts it.
func (s *readSet) key(i int64) *readKey {
	r := s.seq[i%int64(len(s.seq))]
	return &s.keys[r.kind][r.idx]
}

// keySizes sets the key-space size of the kinds not enumerated as a grid.
type keySizes struct{ score, contexts, batch int }

// buildReadSet draws the key space — every (measure, k, r) cell of the
// top-r kinds plus sized tables of point and batch keys, each table
// shuffled so popularity is independent of the parameters — and a
// request sequence of n entries: the kind by readMix, the key within it
// by Zipf(zipfS) rank.
//
// The key space and its popularity ranks are pinned like the graph, drawn
// from a fixed stream; seed drives only the sequence. Which few keys are
// hottest decides much of the latency distribution (a hot /topr with
// r = 200 encodes 200 results, one with r = 1 a single one), so a seeded
// ranking moved serve-read's median latency by up to a fifth from seed to
// seed.
func buildReadSet(g *trussdiv.Graph, sizes keySizes, n int, seed int64) *readSet {
	rng := stream(0, "read-keys")
	s := &readSet{}
	add := func(kind readKind, key readKey) {
		key.kind = kind
		s.keys[kind] = append(s.keys[kind], key)
	}
	measures := trussdiv.AllMeasures()
	for _, m := range measures {
		for k := int32(minK); k <= maxK; k++ {
			for r := 1; r <= maxTopR; r++ {
				add(kindTopR, topRKey(trussdiv.Query{K: k, R: r, Measure: m}))
			}
			for r := 5; r <= 100; r++ {
				add(kindTopRCtx, topRKey(trussdiv.Query{K: k, R: r, Measure: m, IncludeContexts: true}))
			}
		}
		for r := 1; r <= maxTopR; r++ {
			add(kindPFree, topRKey(trussdiv.Query{R: r, Measure: m}))
		}
	}
	pointK := func() int32 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return minK + rng.Int31n(maxK-minK+1)
	}
	n32 := int32(g.N())
	for range sizes.score {
		add(kindScore, pointKey("/score", rng.Int31n(n32), pointK(), measures[rng.Intn(len(measures))]))
	}
	for range sizes.contexts {
		// Degree-skewed, by assumption: an endpoint of a uniform edge, so
		// high-degree vertices are asked about more often.
		e := g.Edge(rng.Int31n(int32(g.M())))
		v := e.U
		if rng.Intn(2) == 1 {
			v = e.V
		}
		add(kindContexts, pointKey("/contexts", v, pointK(), measures[rng.Intn(len(measures))]))
	}
	for kind := range s.keys[:kindScore] {
		rng.Shuffle(len(s.keys[kind]), func(i, j int) {
			s.keys[kind][i], s.keys[kind][j] = s.keys[kind][j], s.keys[kind][i]
		})
	}
	fixed := rand.NewZipf(rng, zipfS, 1, uint64(len(s.keys[kindTopR])-1))
	free := rand.NewZipf(rng, zipfS, 1, uint64(len(s.keys[kindPFree])-1))
	for range sizes.batch {
		qs := make([]trussdiv.Query, batchSize)
		for i := range qs {
			if rng.Intn(4) == 0 {
				qs[i] = s.keys[kindPFree][free.Uint64()].q
			} else {
				qs[i] = s.keys[kindTopR][fixed.Uint64()].q
			}
			qs[i].SkipStats = true // as the /batch handler asks
		}
		add(kindBatch, batchKey(qs))
	}

	seqRng := stream(seed, "read-sequence")
	var zipfs [numKinds]*rand.Zipf
	for kind := range zipfs {
		zipfs[kind] = rand.NewZipf(seqRng, zipfS, 1, uint64(len(s.keys[kind])-1))
	}
	s.seq = make([]readRef, n)
	for i := range s.seq {
		p := seqRng.Intn(100)
		kind := readKind(0)
		for p >= readMix[kind] {
			p -= readMix[kind]
			kind++
		}
		s.seq[i] = readRef{kind: kind, idx: int32(zipfs[kind].Uint64())}
	}
	return s
}

func topRKey(q trussdiv.Query) readKey {
	v := url.Values{}
	if q.K != 0 {
		v.Set("k", strconv.Itoa(int(q.K)))
	}
	v.Set("r", strconv.Itoa(q.R))
	v.Set("measure", string(q.Measure))
	if q.IncludeContexts {
		v.Set("contexts", "true")
	}
	return readKey{q: q, url: &url.URL{Path: "/topr", RawQuery: v.Encode()}}
}

func pointKey(path string, vertex, k int32, m trussdiv.Measure) readKey {
	v := url.Values{}
	v.Set("v", strconv.Itoa(int(vertex)))
	if k != 0 {
		v.Set("k", strconv.Itoa(int(k)))
	}
	v.Set("measure", string(m))
	return readKey{v: vertex, k: k, m: m, url: &url.URL{Path: path, RawQuery: v.Encode()}}
}

type batchQueryJSON struct {
	K       int32  `json:"k"`
	R       int    `json:"r"`
	Measure string `json:"measure"`
}

func batchKey(qs []trussdiv.Query) readKey {
	body := struct {
		Queries []batchQueryJSON `json:"queries"`
	}{}
	for _, q := range qs {
		body.Queries = append(body.Queries, batchQueryJSON{K: q.K, R: q.R, Measure: string(q.Measure)})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return readKey{batch: qs, url: &url.URL{Path: "/batch"}, body: raw}
}

// buildEdits generates batches of perKind triadic-closure inserts (an
// edge from a vertex to a friend of a friend) and perKind deletes of
// uniform edges. Every batch is valid against the graph as edited by the
// batches before it.
func buildEdits(g *trussdiv.Graph, batches, perKind int, seed int64) ([]trussdiv.Updates, error) {
	rng := stream(seed, "edits")
	over := map[trussdiv.Edge]bool{} // edges the stream has inserted (true) or deleted (false)
	present := func(e trussdiv.Edge) bool {
		if p, ok := over[e]; ok {
			return p
		}
		return g.HasEdge(e.U, e.V)
	}
	n := int32(g.N())
	out := make([]trussdiv.Updates, batches)
	for b := range out {
		var u trussdiv.Updates
		inBatch := map[trussdiv.Edge]bool{}
		for tries := 0; len(u.Insert) < perKind; tries++ {
			if tries > 1000*perKind {
				return nil, fmt.Errorf("edit stream: no triadic closure left after %d tries", tries)
			}
			x := rng.Int31n(n)
			nx := g.Neighbors(x)
			if len(nx) == 0 {
				continue
			}
			w := nx[rng.Intn(len(nx))]
			nw := g.Neighbors(w)
			y := nw[rng.Intn(len(nw))]
			e := canon(x, y)
			if x == y || present(e) || inBatch[e] || !present(canon(x, w)) || !present(canon(w, y)) {
				continue
			}
			inBatch[e] = true
			u.Insert = append(u.Insert, e)
		}
		for tries := 0; len(u.Delete) < perKind; tries++ {
			if tries > 1000*perKind {
				return nil, fmt.Errorf("edit stream: no deletable edge left after %d tries", tries)
			}
			e := g.Edge(rng.Int31n(int32(g.M())))
			if !present(e) || inBatch[e] {
				continue
			}
			inBatch[e] = true
			u.Delete = append(u.Delete, e)
		}
		for _, e := range u.Insert {
			over[e] = true
		}
		for _, e := range u.Delete {
			over[e] = false
		}
		out[b] = u
	}
	return out, nil
}

func canon(u, v int32) trussdiv.Edge {
	if u > v {
		u, v = v, u
	}
	return trussdiv.Edge{U: u, V: v}
}

// editedGraph applies batches[b] for every b marked in applied to g as
// edge-set operations, independently of the program's own edit path.
func editedGraph(g *trussdiv.Graph, batches []trussdiv.Updates, applied []bool) (*trussdiv.Graph, error) {
	over := map[trussdiv.Edge]bool{}
	for b, ok := range applied {
		if !ok {
			continue
		}
		for _, e := range batches[b].Insert {
			over[e] = true
		}
		for _, e := range batches[b].Delete {
			over[e] = false
		}
	}
	edges := make([]trussdiv.Edge, 0, g.M()+len(over))
	for _, e := range g.Edges() {
		if p, ok := over[e]; !ok || p {
			edges = append(edges, e)
		}
	}
	for e, p := range over {
		if p && !g.HasEdge(e.U, e.V) {
			edges = append(edges, e)
		}
	}
	return trussdiv.FromEdges(g.N(), edges)
}

func editsBody(u trussdiv.Updates) []byte {
	type edge struct {
		U int32 `json:"u"`
		V int32 `json:"v"`
	}
	var body struct {
		Insert []edge `json:"insert"`
		Delete []edge `json:"delete"`
	}
	for _, e := range u.Insert {
		body.Insert = append(body.Insert, edge{e.U, e.V})
	}
	for _, e := range u.Delete {
		body.Delete = append(body.Delete, edge{e.U, e.V})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return raw
}

// scanSpec is one ad-hoc analyst query: the candidate set is the 2-hop
// neighbourhood of center, so every query's set is its own.
type scanSpec struct {
	center int32
	q      trussdiv.Query
}

// buildScans gives every vertex, in a seeded order, one scan query: a
// measure, k in [minK, maxK] (10% parameter-free), and r of 10 or 50.
func buildScans(g *trussdiv.Graph, seed int64) []scanSpec {
	rng := stream(seed, "scans")
	measures := trussdiv.AllMeasures()
	out := make([]scanSpec, g.N())
	for i, v := range rng.Perm(g.N()) {
		q := trussdiv.Query{R: 10, Measure: measures[rng.Intn(len(measures))], Workers: 1}
		if rng.Intn(10) != 0 {
			q.K = minK + rng.Int31n(maxK-minK+1)
		}
		if rng.Intn(2) == 0 {
			q.R = 50
		}
		out[i] = scanSpec{center: int32(v), q: q}
	}
	return out
}

// hood builds capped 2-hop neighbourhoods over reusable marks.
type hood struct {
	mark  []uint32
	stamp uint32
	out   []int32
}

// twoHop returns v, its neighbours, then their neighbours, in that order
// and without repeats, stopping at limit vertices. The slice is reused by
// the next call.
func (h *hood) twoHop(g *trussdiv.Graph, v int32, limit int) []int32 {
	if len(h.mark) != g.N() {
		h.mark = make([]uint32, g.N())
	}
	h.stamp++
	h.out = h.out[:0]
	add := func(x int32) bool {
		if len(h.out) >= limit {
			return false
		}
		if h.mark[x] != h.stamp {
			h.mark[x] = h.stamp
			h.out = append(h.out, x)
		}
		return true
	}
	add(v)
	for _, w := range g.Neighbors(v) {
		if !add(w) {
			return h.out
		}
	}
	first := len(h.out)
	for _, w := range h.out[1:first] {
		for _, x := range g.Neighbors(w) {
			if !add(x) {
				return h.out
			}
		}
	}
	return h.out
}
