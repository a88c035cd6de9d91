package trussdiv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/truss"
)

// FuzzApplyParity drives up to four edit batches, decoded from the fuzz
// bytes, through a DB with every catalogue engine prepared and an index
// directory. Batches may hold bad edits (self-loops, out-of-range
// endpoints, repeats, insertions of present and deletions of absent
// edges). A rejected batch must leave the epoch and the graph fingerprint
// as they were. After an accepted one, every engine × measure cell at
// every k in {0, 2, …, τ_max+1}, contexts included, must answer exactly
// like a cold Open of the edited graph, and so must a warm reopen after
// SaveIndexes in both store modes.
//
// Layout: byte 0 picks the graph (even: the Fig. 1 graph; odd: a
// community overlay of 12-40 vertices), byte 1 how the DB starts (built
// in memory, or warm from a store read by mmap or by decoding). Each
// batch is one header byte — insertions in bits 0-2, deletions in bits
// 3-5 — and two bytes per edit. An edit whose first byte has bit 7 set
// names raw endpoints in [-1, n], so it may be out of range. Otherwise an
// insertion names endpoints in [0, n) (it may still be a self-loop or a
// present edge), and a deletion names an edge of the current graph by
// index.
func FuzzApplyParity(f *testing.F) {
	// The batch shapes of the stream tests
	// (TestApplyStreamRepairMatchesColdRebuild and
	// TestApplyMatchesRebuildAllEngines), drawn valid by streamUpdates on
	// both kinds of graph and encoded, for every start.
	rng := rand.New(rand.NewSource(1))
	for start := byte(0); start < 3; start++ {
		for _, shapes := range [][][2]int{
			{{1, 0}, {0, 1}, {3, 2}, {0, 4}},
			{{5, 0}, {4, 4}, {6, 6}},
		} {
			for _, kind := range []byte{0, 2*start + 1} {
				seed := []byte{kind, start}
				g := fuzzGraph(kind)
				for _, s := range shapes {
					u := streamUpdates(g, rng, s[0], s[1])
					seed = append(seed, byte(len(u.Insert)|len(u.Delete)<<3))
					for _, e := range u.Insert {
						seed = append(seed, byte(e.U), byte(e.V))
					}
					for _, e := range u.Delete {
						id := g.EdgeID(e.U, e.V)
						seed = append(seed, byte(id>>8), byte(id))
					}
					// The next graph comes from a plain rebuild, so the
					// seeds do not lean on the code under test.
					edges := slices.DeleteFunc(slices.Clone(g.Edges()), func(e Edge) bool {
						return slices.Contains(u.Delete, e)
					})
					var err error
					if g, err = FromEdges(g.N(), append(edges, u.Insert...)); err != nil {
						f.Fatal(err)
					}
				}
				f.Add(seed)
			}
		}
	}
	// Bad edits on the Fig. 1 graph: a self-loop, an out-of-range
	// endpoint, a deletion of the absent edge (1,9); then a valid batch.
	f.Add([]byte{0, 0, 0x01, 3, 3, 0x01, 0x80 | 18, 0, 0x08, 0x80 | 2, 10, 0x09, 12, 15, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ctx := context.Background()
		dir := t.TempDir()
		db := openPrepared(t, fuzzGraph(data[0]), dir, data[1]%3)
		data = data[2:]
		for batch := 0; batch < 4 && len(data) > 0; batch++ {
			var u Updates
			if u, data = decodeBatch(data, db.Graph()); u.Insert == nil && u.Delete == nil {
				return
			}
			label := fmt.Sprintf("batch %d %+v", batch, u)
			epoch, fp := db.Epoch(), db.Graph().Fingerprint()
			if _, err := db.Apply(ctx, u); err != nil {
				if !errors.Is(err, ErrBadUpdate) {
					t.Fatalf("%s: rejected with %v, want an ErrBadUpdate", label, err)
				}
				if db.Epoch() != epoch || db.Graph().Fingerprint() != fp {
					t.Fatalf("%s: rejected batch changed the DB", label)
				}
				continue
			}
			cold, err := Open(rebuilt(t, db.Graph()))
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, label+" applied", db, cold)
			if _, err := db.SaveIndexes(); err != nil {
				t.Fatalf("%s: SaveIndexes: %v", label, err)
			}
			for _, mode := range []StoreMode{StoreMmap, StoreDecode} {
				warm, err := Open(db.Graph(), WithIndexDir(dir), WithStoreMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				if st := warm.StoreStatus(); !st.Warm || st.LoadErr != nil {
					t.Fatalf("%s: warm reopen (%s) rejected the saved store: %+v", label, mode, st)
				}
				checkParity(t, fmt.Sprintf("%s warm %s", label, mode), warm, cold)
			}
		}
	})
}

// fuzzGraph is the graph FuzzApplyParity's byte 0 picks: the Fig. 1
// graph when kind is even, a community overlay of 12-40 vertices when odd.
func fuzzGraph(kind byte) *Graph {
	if kind&1 == 0 {
		return gen.Fig1Graph()
	}
	n := 12 + int(kind>>1)%29
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: n, Attach: 2, Cliques: n / 4, MinSize: 3, MaxSize: 6, Seed: int64(kind),
	})
}

// openPrepared opens g with an index directory and every catalogue engine
// prepared. start 0 builds in memory; 1 and 2 first save a store and then
// reopen it warm, read by mmap or by decoding, so the batches patch
// tables that live in the store file.
func openPrepared(t *testing.T, g *Graph, dir string, start byte) *DB {
	t.Helper()
	ctx := context.Background()
	db, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prepare(ctx, db.Engines()...); err != nil {
		t.Fatal(err)
	}
	if start == 0 {
		return db
	}
	if _, err := db.SaveIndexes(); err != nil {
		t.Fatal(err)
	}
	mode := StoreMmap
	if start == 2 {
		mode = StoreDecode
	}
	if db, err = Open(g, WithIndexDir(dir), WithStoreMode(mode)); err != nil {
		t.Fatal(err)
	}
	if st := db.StoreStatus(); !st.Warm || st.LoadErr != nil {
		t.Fatalf("warm start (%s) rejected the saved store: %+v", mode, st)
	}
	if err := db.Prepare(ctx, db.Engines()...); err != nil {
		t.Fatal(err)
	}
	return db
}

// decodeBatch reads one batch off data (see FuzzApplyParity for the
// layout) against the current graph g, returning it and the rest of data.
// A header whose edits do not fit in data yields the zero Updates.
func decodeBatch(data []byte, g *Graph) (Updates, []byte) {
	nIns, nDel := int(data[0]&7), int(data[0]>>3&7)
	data = data[1:]
	if len(data) < 2*(nIns+nDel) {
		return Updates{}, nil
	}
	n, m := int32(g.N()), g.M()
	raw := func() Edge { return Edge{U: int32(data[0]&0x7f)%(n+2) - 1, V: int32(data[1])%(n+2) - 1} }
	u := Updates{Insert: []Edge{}, Delete: []Edge{}}
	for i := 0; i < nIns; i++ {
		e := Edge{U: int32(data[0]) % n, V: int32(data[1]) % n}
		if data[0]&0x80 != 0 {
			e = raw()
		}
		u.Insert = append(u.Insert, e)
		data = data[2:]
	}
	for i := 0; i < nDel; i++ {
		if data[0]&0x80 != 0 || m == 0 {
			u.Delete = append(u.Delete, raw())
		} else {
			u.Delete = append(u.Delete, g.Edge(int32((int(data[0])<<8|int(data[1]))%m)))
		}
		data = data[2:]
	}
	return u, data
}

// rebuilt lays g's edge list out afresh with FromEdges, so the cold side
// of a parity check never shares the spliced CSR arrays.
func rebuilt(t *testing.T, g *Graph) *Graph {
	t.Helper()
	out, err := FromEdges(g.N(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkParity requires got's graph to have want's CSR arrays, and every
// engine × measure cell of want's catalogue to answer every vertex, with contexts, at every k in {0, 2, …, τ_max+1}
// (k = 0 for the parameter-free engine, which takes no other) exactly as
// want does.
func checkParity(t *testing.T, label string, got, want *DB) {
	t.Helper()
	ctx := context.Background()
	g := want.Graph()
	gotOff, gotAdj, gotEid, gotEdges := got.Graph().CSR()
	off, adj, eid, edges := g.CSR()
	if !slices.Equal(gotOff, off) || !slices.Equal(gotAdj, adj) || !slices.Equal(gotEid, eid) || !slices.Equal(gotEdges, edges) {
		t.Fatalf("%s: CSR arrays differ", label)
	}
	tauMax := int32(0)
	if tau := truss.Decompose(g); len(tau) > 0 {
		tauMax = slices.Max(tau)
	}
	for _, mi := range want.Measures() {
		for _, name := range mi.Engines {
			for k := int32(0); k <= tauMax+1; k++ {
				if k == 1 || (name == "pfree") != (k == 0) {
					continue
				}
				q := NewQuery(k, g.N(), ViaEngine(name), WithMeasure(mi.Measure), WithContexts())
				a, _, err := got.TopR(ctx, q)
				if err != nil {
					t.Fatalf("%s %s/%s k=%d: %v", label, name, mi.Measure, k, err)
				}
				b, _, err := want.TopR(ctx, q)
				if err != nil {
					t.Fatalf("%s %s/%s k=%d (cold): %v", label, name, mi.Measure, k, err)
				}
				if !reflect.DeepEqual(a.TopR, b.TopR) || !reflect.DeepEqual(a.Contexts, b.Contexts) {
					t.Fatalf("%s %s/%s k=%d: answer diverges from a cold Open\n got %v\nwant %v",
						label, name, mi.Measure, k, a.TopR, b.TopR)
				}
			}
		}
	}
}
