package trussdiv

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
	// The default set plus pfree, so the store also carries the
	// parameter-free rankings of every measure.
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
	warm.Snapshot().cache.buildTau = func(*Graph) (tau, sup []int32) {
		t.Error("warm DB rebuilt the truss decomposition")
		return nil, nil
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
	// served from the store slab, never re-derived.
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
// format — the never-regenerated v1 and v2 goldens — is rejected with
// ErrIndexVersion, Prepare builds in its place and persists a v3 file,
// and the next open is warm, builds nothing, and answers like a cold DB.
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

	for _, golden := range []string{"golden_fig1.tdx", "golden_fig1_v2.tdx"} {
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
			for _, e := range engines {
				got, _, err := warm.TopR(ctx, NewQuery(3, 5, ViaEngine(e), WithContexts()))
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
	if !st.Warm || len(st.Sections) != 7 {
		t.Fatalf("store after heal: %+v, want all 6 index sections plus the epoch", st)
	}
	if healed.Snapshot().cache.builds != 0 {
		t.Fatalf("healed open built %d times; want 0", healed.Snapshot().cache.builds)
	}
}

// TestDamagedPFreeSectionRebuildsAlone extends the corruption taxonomy
// to the parameter-free slab, in both read modes: with one measure's
// pfree section damaged (its count word inflated, so the decode CRC and
// the mmap structural validation both reject it), the k-less query for
// that measure still answers correctly — re-derived from the intact
// per-k sections, without entering a builder — while the sibling pfree
// sections keep loading from disk, and the rebuild's persist heals the
// file for the next open.
func TestDamagedPFreeSectionRebuildsAlone(t *testing.T) {
	for _, mode := range []StoreMode{StoreMmap, StoreDecode} {
		t.Run(mode.String(), func(t *testing.T) {
			g := gen.CommunityOverlay(gen.OverlayConfig{
				N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 11,
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
			if err := seed.Prepare(ctx, "pfree"); err != nil {
				t.Fatal(err)
			}
			if st := seed.StoreStatus(); st.SaveErr != nil {
				t.Fatal(st.SaveErr)
			}
			want := map[Measure]*Result{}
			for _, m := range AllMeasures() {
				res, _, err := seed.TopR(ctx, NewQuery(0, 10, ViaEngine("pfree"), WithMeasure(m)))
				if err != nil {
					t.Fatal(err)
				}
				want[m] = res
			}
			path := store.PathIn(dir)

			// Inflate the count word of the truss-measure pfree section: the
			// decode CRC fails on the flipped bytes and the mmap validation
			// rejects count > n, so both modes classify it corrupt.
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			count := int(binary.LittleEndian.Uint32(blob[40:44]))
			found := false
			for i := 0; i < count; i++ {
				e := blob[44+28*i:]
				if store.Section(binary.LittleEndian.Uint32(e[0:4])) == store.SecPFree &&
					binary.LittleEndian.Uint32(e[4:8]) == 0 { // measure tag: truss
					off := binary.LittleEndian.Uint64(e[12:20])
					binary.LittleEndian.PutUint64(blob[off:], ^uint64(0))
					found = true
				}
			}
			if !found {
				t.Fatal("no truss-measure pfree section in the persisted file")
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}

			db, err := Open(g, WithIndexDir(dir), WithStoreMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range AllMeasures() {
				got, _, err := db.TopR(ctx, NewQuery(0, 10, ViaEngine("pfree"), WithMeasure(m)))
				if err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				if !reflect.DeepEqual(got.TopR, want[m].TopR) {
					t.Fatalf("%s: answer over the damaged store diverges from the seed", m)
				}
			}
			if !errors.Is(db.StoreStatus().LoadErr, ErrIndexCorrupt) {
				t.Fatalf("LoadErr = %v, want ErrIndexCorrupt", db.StoreStatus().LoadErr)
			}
			// The damaged slab was re-derived from the intact per-k sections
			// in O(table) — no builder ran for it or for its siblings.
			if n := db.Snapshot().cache.builds; n != 0 {
				t.Fatalf("builds = %d, want 0 (pfree re-derives from per-k tables)", n)
			}

			// The re-derivation persisted: a fresh open is fully warm again.
			healed, err := Open(g, WithIndexDir(dir), WithStoreMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			if st := healed.StoreStatus(); st.LoadErr != nil {
				t.Fatalf("healed store still rejects a section: %v", st.LoadErr)
			}
			for _, m := range AllMeasures() {
				got, _, err := healed.TopR(ctx, NewQuery(0, 10, ViaEngine("pfree"), WithMeasure(m)))
				if err != nil {
					t.Fatalf("healed %s: %v", m, err)
				}
				if !reflect.DeepEqual(got.TopR, want[m].TopR) {
					t.Fatalf("healed %s: answer diverges from the seed", m)
				}
			}
			if n := healed.Snapshot().cache.builds; n != 0 {
				t.Fatalf("healed open built %d times; want 0", n)
			}
		})
	}
}
