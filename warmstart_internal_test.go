package trussdiv

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
	"trussdiv/internal/store"
)

// TestWarmOpenNeverBuilds pins the warm-start contract: once a complete
// index store exists, a new DB serves every prepared engine purely from
// disk — the builders are never entered. The cache's build entry points
// are swapped for tripwires, so any regression that silently rebuilds
// (and re-pays the truss decomposition on deploy) fails loudly.
func TestWarmOpenNeverBuilds(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 400, Attach: 3, Cliques: 80, MinSize: 4, MaxSize: 7, Seed: 5,
	})
	dir := t.TempDir()
	ctx := context.Background()

	seed, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	// The default set plus pfree, so the store also carries every
	// measure's table, whose k = 0 row is the parameter-free ranking.
	if err := seed.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx, "pfree"); err != nil {
		t.Fatal(err)
	}
	if seed.Snapshot().cache.builds == 0 {
		t.Fatal("seeding DB built nothing; the tripwires below would prove nothing")
	}
	if st := seed.StoreStatus(); st.SaveErr != nil {
		t.Fatalf("persist failed: %v", st.SaveErr)
	}

	warm, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	warm.Snapshot().cache.buildTau = func(*Graph) []int32 {
		t.Error("warm DB rebuilt the truss decomposition")
		return nil
	}
	warm.Snapshot().cache.buildAllIdx = func(g *Graph, t2 core.BuildTargets) *core.BuildProducts {
		t.Errorf("warm DB rebuilt ego-derived structures %+v", t2)
		return core.BuildAll(g, t2, 0)
	}

	if err := warm.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"online", "bound", "tsd", "gct", "hybrid"} {
		if _, _, err := warm.TopR(ctx, NewQuery(3, 10, ViaEngine(engine), WithContexts())); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
	}
	// The k-less cell warm starts too: every measure's pfree ranking is
	// derived from the table loaded from the store, never built.
	for _, m := range AllMeasures() {
		if _, _, err := warm.TopR(ctx, NewQuery(0, 10, ViaEngine("pfree"), WithMeasure(m))); err != nil {
			t.Fatalf("pfree/%s: %v", m, err)
		}
	}
	if _, err := warm.Score(ctx, 0, 3); err != nil {
		t.Fatal(err)
	}
	if warm.Snapshot().cache.builds != 0 {
		t.Fatalf("warm DB performed %d builds; want 0", warm.Snapshot().cache.builds)
	}
	if st := warm.IndexStats(); st.LoadTime == 0 {
		t.Fatal("warm DB reports zero load time; nothing was read from the store")
	}
	st := warm.StoreStatus()
	if st.FormatVersion != store.Version {
		t.Fatalf("warm store FormatVersion = %d, want %d", st.FormatVersion, store.Version)
	}
	if st.Mode == StoreMmap {
		// The stronger v3 tripwire: a mapped warm start decodes nothing —
		// every section above was served as a view over the mapping.
		if n := warm.Snapshot().cache.file.PayloadReads(); n != 0 {
			t.Fatalf("mmap warm DB performed %d payload reads; want 0", n)
		}
	}
}

// TestOldFormatIndexFileRejectedAndHealed: an index file in a retired
// format — the never-regenerated v1, v2 and v3 goldens — is rejected with
// ErrIndexVersion, Prepare builds in its place and persists a file in the
// current format, and the next open is warm, builds nothing, and answers
// like a cold DB, the k-less query included.
func TestOldFormatIndexFileRejectedAndHealed(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	engines := []string{"tsd", "gct", "hybrid"}
	cold, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*Result{}
	for _, e := range engines {
		if want[e], _, err = cold.TopR(ctx, NewQuery(3, 5, ViaEngine(e), WithContexts())); err != nil {
			t.Fatalf("cold %s: %v", e, err)
		}
	}

	// hybrid's table answers the k-less query too, from its row 0.
	kless := NewQuery(0, 5, ViaEngine("pfree"), WithContexts())
	if want["pfree"], _, err = cold.TopR(ctx, kless); err != nil {
		t.Fatalf("cold pfree: %v", err)
	}

	for _, golden := range []string{"golden_fig1.tdx", "golden_fig1_v2.tdx", "golden_fig1_v3.tdx", "golden_fig1_v3_pfree.tdx"} {
		t.Run(golden, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("internal", "store", "testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(store.PathIn(dir), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(g, WithIndexDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			if st := db.StoreStatus(); st.Warm || !errors.Is(st.LoadErr, ErrIndexVersion) {
				t.Fatalf("old-format store: %+v, want cold with LoadErr matching ErrIndexVersion", st)
			}
			if err := db.Prepare(ctx, engines...); err != nil {
				t.Fatal(err)
			}
			if db.Snapshot().cache.builds == 0 {
				t.Fatal("Prepare over a rejected store built nothing")
			}
			if st := db.StoreStatus(); st.SaveErr != nil {
				t.Fatalf("persist failed: %v", st.SaveErr)
			}

			warm, err := Open(g, WithIndexDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			st := warm.StoreStatus()
			if !st.Warm || st.LoadErr != nil || st.FormatVersion != store.Version {
				t.Fatalf("reopen: %+v, want warm at format v%d", st, store.Version)
			}
			for _, e := range append(engines, "pfree") {
				q := NewQuery(3, 5, ViaEngine(e), WithContexts())
				if e == "pfree" {
					q = kless
				}
				got, _, err := warm.TopR(ctx, q)
				if err != nil {
					t.Fatalf("warm %s: %v", e, err)
				}
				if !reflect.DeepEqual(got, want[e]) {
					t.Fatalf("warm %s answer %+v, cold %+v", e, got, want[e])
				}
			}
			if n := warm.Snapshot().cache.builds; n != 0 {
				t.Fatalf("healed open built %d times; want 0", n)
			}
		})
	}
}

// TestWarmOpenDecodeMode pins the WithStoreMode(StoreDecode) escape hatch:
// the same warm start works with the mapping disabled, reads sections the
// classic way, and reports the mode it actually used.
func TestWarmOpenDecodeMode(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 6,
	})
	dir := t.TempDir()
	ctx := context.Background()

	seed, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx); err != nil {
		t.Fatal(err)
	}

	warm, err := Open(g, WithIndexDir(dir), WithStoreMode(StoreDecode))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if warm.Snapshot().cache.builds != 0 {
		t.Fatalf("decode-mode warm DB performed %d builds; want 0", warm.Snapshot().cache.builds)
	}
	st := warm.StoreStatus()
	if !st.Warm || st.Mode != StoreDecode {
		t.Fatalf("store status = %+v, want warm in decode mode", st)
	}
	if n := warm.Snapshot().cache.file.PayloadReads(); n == 0 {
		t.Fatal("decode-mode warm DB reports 0 payload reads; counter broken")
	}
}

// TestDamagedSectionKeepsSiblings corrupts exactly one section of a full
// store file (a TSD slab count word, so the decode CRC and the mmap
// structural validation both reject it) and checks two things per-section
// damage handling exists for: the sibling sections still load (no
// whole-file demotion), and the post-rebuild persist keeps them instead
// of writing a file holding only the rebuilt section.
func TestDamagedSectionKeepsSiblings(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 9,
	})
	dir := t.TempDir()
	ctx := context.Background()

	seed, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	path := store.PathIn(dir)

	// Flip one byte inside the TSD section's payload, located via the TOC
	// (header: 44 bytes; TOC entries: {id u32, measure u32, crc u32,
	// off u64, len u64}).
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := int(binary.LittleEndian.Uint32(blob[40:44]))
	found := false
	for i := 0; i < count; i++ {
		e := blob[44+28*i:]
		if store.Section(binary.LittleEndian.Uint32(e[0:4])) == store.SecTSD {
			off := binary.LittleEndian.Uint64(e[12:20])
			blob[off+20] ^= 0xFF
			found = true
		}
	}
	if !found {
		t.Fatal("no TSD section in the persisted file")
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	// The damaged section must rebuild (builds == 1)...
	if _, _, err := db.TopR(ctx, NewQuery(3, 5, ViaEngine("tsd"))); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(db.StoreStatus().LoadErr, ErrIndexCorrupt) {
		t.Fatalf("LoadErr = %v, want ErrIndexCorrupt", db.StoreStatus().LoadErr)
	}
	if db.Snapshot().cache.builds != 1 {
		t.Fatalf("builds = %d, want exactly the damaged section rebuilt", db.Snapshot().cache.builds)
	}
	// ...while its siblings still load from disk, not from builders.
	if err := db.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if db.Snapshot().cache.builds != 1 {
		t.Fatalf("builds = %d after Prepare; sibling sections were rebuilt instead of loaded",
			db.Snapshot().cache.builds)
	}
	// And the rebuild's persist kept every section: a fresh open is fully
	// warm again.
	healed, err := Open(g, WithIndexDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := healed.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	st := healed.StoreStatus()
	if !st.Warm || len(st.Sections) != 5 {
		t.Fatalf("store after heal: %+v, want all 4 index sections plus the epoch", st)
	}
	if healed.Snapshot().cache.builds != 0 {
		t.Fatalf("healed open built %d times; want 0", healed.Snapshot().cache.builds)
	}
}

// TestLegacyPFreeStoreWarmStart: a store that still carries the retired
// pfree section (ID 8) beside its ranking tables opens warm in both store
// modes, lists no retired section, and answers every measure's k-less
// query at r = 3 and r = n exactly like a cold DB, by a prefix read of
// the table's stored row 0 and without a build.
func TestLegacyPFreeStoreWarmStart(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	seedDir := t.TempDir()
	seed, err := Open(g, WithIndexDir(seedDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx, "tsd", "comp", "kcore", "pfree"); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(seedDir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	blob := withExtraSections(written, 8)
	cold, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []StoreMode{StoreMmap, StoreDecode} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, IndexFileName), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(g, WithIndexDir(dir), WithStoreMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			st := db.StoreStatus()
			if !st.Warm || st.LoadErr != nil {
				t.Fatalf("legacy store did not open warm: %+v", st)
			}
			for _, sec := range st.Sections {
				if strings.HasPrefix(sec, "pfree") || strings.HasPrefix(sec, "section(") {
					t.Fatalf("retired section listed: %v", st.Sections)
				}
			}
			for _, m := range AllMeasures() {
				for _, r := range []int{3, g.N()} {
					q := NewQuery(0, r, WithMeasure(m), WithContexts())
					got, gotStats, err := db.TopR(ctx, q)
					if err != nil {
						t.Fatalf("%s r=%d: %v", m, r, err)
					}
					want, _, err := cold.TopR(ctx, q)
					if err != nil {
						t.Fatalf("%s r=%d (cold): %v", m, r, err)
					}
					if !reflect.DeepEqual(got.TopR, want.TopR) || !reflect.DeepEqual(got.Contexts, want.Contexts) {
						t.Fatalf("%s r=%d: warm answer diverges from cold\n got %v\nwant %v", m, r, got.TopR, want.TopR)
					}
					if gotStats.ScoreComputations != len(got.TopR) {
						t.Fatalf("%s r=%d: stats %+v, want a prefix read (one recovery per answer)", m, r, gotStats)
					}
				}
			}
			if n := db.Snapshot().cache.builds; n != 0 {
				t.Fatalf("builds = %d, want 0", n)
			}
		})
	}
}

// TestRetiredSectionStoreUpgrade: a current store that also carries the
// retired section IDs 6 (supports), 7 (graph) and 8 (pfree) — unknown IDs
// to this reader, written into the file here — readies every preparable
// engine without a build and answers exactly like a cold DB. The next
// SaveIndexes rewrites it without the retired sections, so the file
// shrinks.
func TestRetiredSectionStoreUpgrade(t *testing.T) {
	g := gen.Fig1Graph()
	ctx := context.Background()
	queries := map[string]Query{
		"bound":  NewQuery(3, 5, WithContexts()),
		"tsd":    NewQuery(3, 5, WithContexts()),
		"gct":    NewQuery(3, 5, WithContexts()),
		"hybrid": NewQuery(3, 5, WithContexts()),
		"comp":   NewQuery(3, 5, WithMeasure(MeasureComponent), WithContexts()),
		"kcore":  NewQuery(3, 5, WithMeasure(MeasureCore), WithContexts()),
		"pfree":  NewQuery(0, 5, WithContexts()),
	}
	engines := slices.Sorted(maps.Keys(queries))
	seedDir := t.TempDir()
	seed, err := Open(g, WithIndexDir(seedDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Prepare(ctx, engines...); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(seedDir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	blob := withExtraSections(written, 6, 7, 8)
	cold, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []StoreMode{StoreMmap, StoreDecode} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, IndexFileName)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(g, WithIndexDir(dir), WithStoreMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Prepare(ctx, engines...); err != nil {
				t.Fatal(err)
			}
			if n := db.Snapshot().cache.builds; n != 0 {
				t.Fatalf("builds = %d, want 0", n)
			}
			st := db.StoreStatus()
			if !st.Warm || st.LoadErr != nil {
				t.Fatalf("store did not open warm: %+v", st)
			}
			for _, sec := range st.Sections {
				if strings.HasPrefix(sec, "section(") {
					t.Fatalf("retired section listed: %v", st.Sections)
				}
			}
			check := func(name string, q Query) {
				ViaEngine(name)(&q)
				got, gotStats, err := db.TopR(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, _, err := cold.TopR(ctx, q)
				if err != nil {
					t.Fatalf("%s (cold): %v", name, err)
				}
				if !reflect.DeepEqual(got.TopR, want.TopR) || !reflect.DeepEqual(got.Contexts, want.Contexts) {
					t.Fatalf("%s r=%d: warm answer diverges from cold\n got %v\nwant %v", name, q.R, got.TopR, want.TopR)
				}
				if name == "pfree" && gotStats.ScoreComputations != len(got.TopR) {
					t.Fatalf("pfree r=%d: stats %+v, want a prefix read (one recovery per answer)", q.R, gotStats)
				}
			}
			for name, q := range queries {
				check(name, q)
			}

			if _, err := db.SaveIndexes(); err != nil {
				t.Fatal(err)
			}
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, written) {
				t.Fatalf("rewritten store is %d bytes, want the %d bytes written before the retired sections were added",
					len(saved), len(written))
			}
		})
	}
}

// withExtraSections returns the index file blob with one more TOC entry
// per id (truss-tagged), each over an 8-byte payload appended at the end.
// Every other payload moves down by the new entries, padded to keep each
// offset 8-byte aligned. (Header: 44 bytes, section count at 40; TOC
// entries: 28 bytes, {id, measure, crc, offset, length}.)
func withExtraSections(blob []byte, ids ...uint32) []byte {
	count := int(binary.LittleEndian.Uint32(blob[40:44]))
	tocEnd := 44 + 28*count
	shift := (28*len(ids) + 7) &^ 7
	out := slices.Clone(blob[:tocEnd])
	binary.LittleEndian.PutUint32(out[40:44], uint32(count+len(ids)))
	for i := range count {
		off := out[44+28*i+12:]
		binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)+uint64(shift))
	}
	end := (len(blob) + shift + 7) &^ 7
	for i, id := range ids {
		payload := binary.LittleEndian.AppendUint64(nil, uint64(id))
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		out = binary.LittleEndian.AppendUint64(out, uint64(end+8*i))
		out = binary.LittleEndian.AppendUint64(out, 8)
	}
	out = append(out, make([]byte, tocEnd+shift-len(out))...)
	out = append(out, blob[tocEnd:]...)
	out = append(out, make([]byte, end-len(out))...)
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, uint64(id))
	}
	return out
}

// TestWarmApplyKeepsStoreSections: an Apply on a freshly warm-opened DB,
// before any query has loaded a section, patches every ego-derived
// section the store file held instead of dropping it. The edited snapshot
// lists them ready, the patch pass counts all three ranking tables, the
// next query of each engine they serve builds nothing, and every engine
// answers like a cold Open of the edited graph — in both store modes.
func TestWarmApplyKeepsStoreSections(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 200, Attach: 3, Cliques: 40, MinSize: 4, MaxSize: 7, Seed: 11,
	})
	ctx := context.Background()
	u := Updates{Delete: []Edge{g.Edge(0)}}
	for v := int32(1); u.Insert == nil; v++ {
		if !g.HasEdge(0, v) {
			u.Insert = []Edge{{U: 0, V: v}}
		}
	}
	for _, mode := range []StoreMode{StoreMmap, StoreDecode} {
		dir := t.TempDir()
		seed, err := Open(g, WithIndexDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.Prepare(ctx, seed.Engines()...); err != nil {
			t.Fatal(err)
		}
		held := seed.IndexStats()

		db, err := Open(g, WithIndexDir(dir), WithStoreMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
		st := db.IndexStats()
		if st.TSDReady != held.TSDReady || st.GCTReady != held.GCTReady || st.HybridReady != held.HybridReady ||
			!slices.Equal(st.MeasureRankings, held.MeasureRankings) || !slices.Equal(st.PFreeRankings, held.PFreeRankings) {
			t.Fatalf("%s: IndexStats after Apply = %+v, want every section the store held: %+v", mode, st, held)
		}
		if as := db.Snapshot().ApplyStats(); as == nil || as.RankingsPatched != 3 {
			t.Fatalf("%s: ApplyStats = %+v, want 3 ranking tables patched", mode, as)
		}
		for _, engine := range []string{"tsd", "gct", "hybrid", "comp", "kcore", "pfree"} {
			k := int32(3)
			if engine == "pfree" {
				k = 0
			}
			if _, _, err := db.TopR(ctx, NewQuery(k, 10, ViaEngine(engine), WithContexts())); err != nil {
				t.Fatalf("%s %s: %v", mode, engine, err)
			}
		}
		if bt := db.IndexStats().BuildTime; bt != st.BuildTime {
			t.Fatalf("%s: the first queries after Apply built for %v", mode, bt-st.BuildTime)
		}
		cold, err := Open(db.Graph())
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, mode.String(), db, cold)
	}
}
