package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden index-store file")

// bothModes runs a subtest under each read mode, so every behavioral
// contract is pinned through the mmap path and the decode path alike.
func bothModes(t *testing.T, f func(t *testing.T, mode Mode)) {
	t.Helper()
	for _, mode := range []Mode{ModeMmap, ModeDecode} {
		t.Run(mode.String(), func(t *testing.T) { f(t, mode) })
	}
}

// buildIndexes constructs every truss-measure section for g, the way
// cmd/tsdindex does.
func buildIndexes(g *graph.Graph) Indexes {
	return Indexes{
		Tau: truss.Decompose(g),
		TSD: core.BuildTSDIndex(g),
		GCT: core.BuildGCTIndex(g),
		MeasureRankings: map[core.Measure]core.RankTable{
			core.MeasureTruss: rankingsOf(g, core.MeasureTruss),
		},
	}
}

// rankingsOf builds measure m's ranking table over g.
func rankingsOf(g *graph.Graph, m core.Measure) core.RankTable {
	return core.BuildAll(g, core.BuildTargets{Measures: []core.Measure{m}}, 1).MeasureRanks[m]
}

// addMeasureRankings adds the component and core ranking tables to ix,
// the way cmd/tsdindex -measures does.
func addMeasureRankings(g *graph.Graph, ix *Indexes) {
	for _, m := range []core.Measure{core.MeasureComponent, core.MeasureCore} {
		ix.MeasureRankings[m] = rankingsOf(g, m)
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Fig1Graph()
}

// saveTo writes a full index file into a temp dir and returns its path.
func saveTo(t *testing.T, g *graph.Graph, ix Indexes) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), FileName)
	if err := Save(path, g, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripAllSections(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)
	path := saveTo(t, g, ix)

	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		want := []SectionRef{
			{SecTruss, core.MeasureTruss}, {SecTSD, core.MeasureTruss},
			{SecGCT, core.MeasureTruss}, {SecRankings, core.MeasureTruss},
		}
		if got := f.Sections(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sections = %v, want %v", got, want)
		}

		tau, err := f.Tau()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tau, ix.Tau) {
			t.Errorf("truss decomposition changed across the round trip")
		}
		rankings, err := f.MeasureRankings(core.MeasureTruss)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rankings, ix.MeasureRankings[core.MeasureTruss]) {
			t.Errorf("rankings changed across the round trip")
		}
		// The index structures have unexported scratch; compare through
		// their flat forms, which cover every searchable field.
		tsd, err := f.TSD()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tsd.Flatten(), ix.TSD.Flatten()) {
			t.Errorf("TSD index changed across the round trip")
		}
		gct, err := f.GCT()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gct.Flatten(), ix.GCT.Flatten()) {
			t.Errorf("GCT index changed across the round trip")
		}
	})

	back, err := ReadAll(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Tau, ix.Tau) {
		t.Errorf("ReadAll lost the truss decomposition")
	}
	if !reflect.DeepEqual(back.MeasureRankings[core.MeasureTruss], ix.MeasureRankings[core.MeasureTruss]) {
		t.Errorf("ReadAll lost the rankings")
	}
}

func TestPartialFileOnlyHasWrittenSections(t *testing.T) {
	g := testGraph(t)
	ix := Indexes{Tau: truss.Decompose(g)}
	path := saveTo(t, g, ix)
	back, err := ReadAll(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tau == nil || back.TSD != nil || back.GCT != nil || back.MeasureRankings != nil {
		t.Fatalf("partial file round-tripped to %+v", back)
	}
}

// TestV3OffsetsAligned pins the mmap precondition: every payload in a v3
// file starts on an 8-byte file offset, and a v3 reader refuses a file
// where one does not.
func TestV3OffsetsAligned(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, buildIndexes(g))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := int(binary.LittleEndian.Uint32(blob[40:44]))
	for i := 0; i < count; i++ {
		e := blob[headerSize+tocEntrySize*i:]
		if off := binary.LittleEndian.Uint64(e[12:20]); off%8 != 0 {
			t.Fatalf("TOC entry %d: offset %d not 8-byte aligned", i, off)
		}
	}

	// Mis-align the first payload by pointing its entry one byte late (the
	// payload bytes no longer matter: alignment is checked before the CRC).
	off := binary.LittleEndian.Uint64(blob[headerSize+12:])
	binary.LittleEndian.PutUint64(blob[headerSize+12:], off+1)
	length := binary.LittleEndian.Uint64(blob[headerSize+20:])
	binary.LittleEndian.PutUint64(blob[headerSize+20:], length-1)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, g); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for an unaligned v3 offset", err)
	}
}

// TestGoldenFormat pins the byte-exact on-disk layout of a fully
// populated version-4 file (truss sections plus one measure-tagged
// rankings section per alternative measure). A change to the header, the
// TOC or a slab codec fails here and needs a format-version bump (see the
// package comment's compatibility policy); retiring an optional section
// needs only a regeneration and a retired-ID note on the Section
// constants. Regenerate deliberately with
// `go test ./internal/store -run TestGoldenFormat -update`.
func TestGoldenFormat(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)
	addMeasureRankings(g, &ix)
	var buf bytes.Buffer
	if _, err := Write(&buf, g, ix); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_fig1_v4.tdx")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized store (%d bytes) differs from golden file (%d bytes); "+
			"a header, TOC or slab codec change needs a Version bump and -update; "+
			"retiring an optional section needs -update and a retired-ID note", buf.Len(), len(want))
	}
}

// TestUnknownSectionSkipped pins the compatibility policy's one rule
// inside a version: a section ID this reader does not know is skipped. A
// current file with one extra section under an unused ID opens in both
// modes, leaves the extra section out of Sections(), and decodes every
// other section equal to what was written.
func TestUnknownSectionSkipped(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)
	addMeasureRankings(g, &ix)
	blob, err := os.ReadFile(saveTo(t, g, ix))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), FileName)
	if err := os.WriteFile(path, withExtraSection(blob, 9, []byte("from a newer writer")), 0o644); err != nil {
		t.Fatal(err)
	}
	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		want := []SectionRef{
			{SecTruss, core.MeasureTruss}, {SecTSD, core.MeasureTruss},
			{SecGCT, core.MeasureTruss}, {SecRankings, core.MeasureTruss},
			{SecRankings, core.MeasureComponent}, {SecRankings, core.MeasureCore},
		}
		if got := f.Sections(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sections = %v, want %v", got, want)
		}
		if err := f.VerifySections(); err != nil {
			t.Fatal(err)
		}
		tau, err1 := f.Tau()
		tsd, err2 := f.TSD()
		gct, err3 := f.GCT()
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tau, ix.Tau) {
			t.Error("truss decomposition diverges from the one written")
		}
		if !reflect.DeepEqual(tsd.Flatten(), ix.TSD.Flatten()) || !reflect.DeepEqual(gct.Flatten(), ix.GCT.Flatten()) {
			t.Error("TSD/GCT diverge from the ones written")
		}
		for _, m := range core.AllMeasures() {
			perK, err := f.MeasureRankings(m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(perK, ix.MeasureRankings[m]) {
				t.Errorf("%s rankings diverge from the ones written", m)
			}
		}
	})
}

// withExtraSection returns the index file blob with one more TOC entry,
// section id (truss-tagged), whose payload is appended at the end. Every
// other payload moves 32 bytes down: the new TOC entry plus padding that
// keeps each offset 8-byte aligned.
func withExtraSection(blob []byte, id Section, payload []byte) []byte {
	const shift = 32
	count := int(binary.LittleEndian.Uint32(blob[40:44]))
	tocEnd := headerSize + tocEntrySize*count
	out := slices.Clone(blob[:tocEnd])
	binary.LittleEndian.PutUint32(out[40:44], uint32(count+1))
	for i := range count {
		off := out[headerSize+tocEntrySize*i+12:]
		binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)+shift)
	}
	at := align8(len(blob) + shift)
	out = binary.LittleEndian.AppendUint32(out, uint32(id))
	out = binary.LittleEndian.AppendUint32(out, measureCodeTruss)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	out = binary.LittleEndian.AppendUint64(out, uint64(at))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, make([]byte, shift-tocEntrySize)...)
	out = append(out, blob[tocEnd:]...)
	out = append(out, make([]byte, at-len(out))...)
	return append(out, payload...)
}

// TestV1GoldenRejected, TestV2GoldenRejected and TestV3GoldenRejected pin
// the compatibility policy: the checked-in v1, v2 and v3 goldens (never
// regenerated) are refused with a typed *VersionError naming their
// version — through OpenFile in both modes — so a DB rebuilds and
// persists the current version in their place instead of misreading
// them. A v3 rankings section has no parameter-free row, so read as v4
// it would answer k-less queries from an empty ranking.
func TestV1GoldenRejected(t *testing.T) {
	checkOldGoldenRejected(t, "golden_fig1.tdx", 1)
}

func TestV2GoldenRejected(t *testing.T) {
	checkOldGoldenRejected(t, "golden_fig1_v2.tdx", 2)
}

func TestV3GoldenRejected(t *testing.T) {
	for _, file := range []string{"golden_fig1_v3.tdx", "golden_fig1_v3_pfree.tdx"} {
		t.Run(file, func(t *testing.T) { checkOldGoldenRejected(t, file, 3) })
	}
}

func checkOldGoldenRejected(t *testing.T, file string, version uint32) {
	g := testGraph(t)
	path := filepath.Join("testdata", file)
	want := &VersionError{Got: version, Want: Version}
	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if f != nil {
			f.Close()
		}
		var ve *VersionError
		if !errors.As(err, &ve) || *ve != *want || !errors.Is(err, ErrVersion) {
			t.Fatalf("OpenFile: err = %v, want %v", err, want)
		}
	})
}

// TestMeasureRankingsRoundTrip exercises the measure-tagged sections:
// per-k rankings of the component and core measures survive a save/load
// cycle and stay isolated from the truss rankings.
func TestMeasureRankingsRoundTrip(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)
	addMeasureRankings(g, &ix)
	path := saveTo(t, g, ix)
	back, err := ReadAll(path, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Measure{core.MeasureComponent, core.MeasureCore} {
		if !reflect.DeepEqual(back.MeasureRankings[m], ix.MeasureRankings[m]) {
			t.Errorf("%s rankings changed across the round trip", m)
		}
	}
	if !reflect.DeepEqual(back.MeasureRankings[core.MeasureTruss], ix.MeasureRankings[core.MeasureTruss]) {
		t.Error("truss rankings polluted by measure-tagged sections")
	}
	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if got := len(f.Sections()); got != 6 {
			t.Fatalf("file holds %d sections, want 6 (4 truss + 2 measure rankings)", got)
		}
		for _, m := range []core.Measure{core.MeasureComponent, core.MeasureCore} {
			perK, err := f.MeasureRankings(m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(perK, ix.MeasureRankings[m]) {
				t.Errorf("%s rankings changed through the %v handle", m, mode)
			}
		}
	})
}

// TestPFreeRankingRoundTrip: the parameter-free ranking is row 0 of each
// measure's rankings section; a Ranked table over it, loaded through
// either read mode, answers the K = 0 query with r = n exactly as a
// brute-force ranking of every vertex does.
func TestPFreeRankingRoundTrip(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)
	addMeasureRankings(g, &ix)
	path := saveTo(t, g, ix)
	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for _, m := range core.AllMeasures() {
			perK, err := f.MeasureRankings(m)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := core.NewRanked(core.NewMeasureScorer(g, m), perK).Search(context.Background(),
				core.Params{R: g.N(), SkipContexts: true, Measure: m})
			if err != nil {
				t.Fatal(err)
			}
			if want := brutePFreeRanking(g, m); !reflect.DeepEqual(res.TopR, want) {
				t.Errorf("%s: K=0 answer from the loaded table\n got %v\nwant %v", m, res.TopR, want)
			}
		}
	})
}

// brutePFreeRanking ranks every vertex of g by its parameter-free score
// under m, straight from the definition — the largest h with
// s(v, max(h, 2)) >= h over the scorer's all-k vector — in canonical
// order, zero-score vertices last by ascending ID.
func brutePFreeRanking(g *graph.Graph, m core.Measure) []core.VertexScore {
	vs := core.NewVertexScorer(g, m)
	out := make([]core.VertexScore, g.N())
	for v := range out {
		allK := vs.ScoresAllK(int32(v))
		h := max(len(allK)-1, 0)
		for h > 0 && allK[max(h, 2)] < h {
			h--
		}
		out[v] = core.VertexScore{V: int32(v), Score: h}
	}
	slices.SortStableFunc(out, func(a, b core.VertexScore) int { return b.Score - a.Score })
	return out
}

// TestMmapMatchesDecode is the mode-equivalence gate: every section of a
// fully populated file must deserialize to identical values whether its
// bytes arrive through the mapping or through a checksummed read.
func TestMmapMatchesDecode(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)
	ix.Epoch = 7
	path := saveTo(t, g, ix)

	mm, err := OpenFile(path, g, WithMode(ModeMmap))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	dec, err := OpenFile(path, g, WithMode(ModeDecode))
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	if !mmapSupported || !hostLittleEndian {
		t.Skipf("platform cannot mmap (mmapSupported=%v, littleEndian=%v)", mmapSupported, hostLittleEndian)
	}
	if mm.Mode() != ModeMmap || dec.Mode() != ModeDecode {
		t.Fatalf("modes = %v/%v, want mmap/decode", mm.Mode(), dec.Mode())
	}

	tauM, err1 := mm.Tau()
	tauD, err2 := dec.Tau()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(tauM, tauD) {
		t.Error("tau differs between modes")
	}
	tsdM, err1 := mm.TSD()
	tsdD, err2 := dec.TSD()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(tsdM.Flatten(), tsdD.Flatten()) {
		t.Error("TSD differs between modes")
	}
	gctM, err1 := mm.GCT()
	gctD, err2 := dec.GCT()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(gctM.Flatten(), gctD.Flatten()) {
		t.Error("GCT differs between modes")
	}
	rkM, err1 := mm.MeasureRankings(core.MeasureTruss)
	rkD, err2 := dec.MeasureRankings(core.MeasureTruss)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(rkM, rkD) {
		t.Error("rankings differ between modes")
	}
	epM, err1 := mm.Epoch()
	epD, err2 := dec.Epoch()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if epM != 7 || epD != 7 {
		t.Errorf("epochs = %d/%d, want 7/7", epM, epD)
	}

	// The mmap handle must not have decoded anything: all of the above were
	// served as views over the mapping.
	if n := mm.PayloadReads(); n != 0 {
		t.Errorf("mmap handle performed %d payload reads, want 0", n)
	}
	if n := dec.PayloadReads(); n == 0 {
		t.Error("decode handle reports 0 payload reads; counter broken")
	}
}

// TestPortableDecoderMatchesViews forces the big-endian copy path on a
// little-endian host: every slab array must decode to the same values the
// in-place views hold, in fresh memory rather than over the payload.
func TestPortableDecoderMatchesViews(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: the copy path is the only path")
	}
	g := testGraph(t)
	ix := buildIndexes(g)
	addMeasureRankings(g, &ix)
	path := saveTo(t, g, ix)

	type loaded struct {
		tau      []int32
		tsd      core.TSDFlat
		gct      core.GCTFlat
		rankings core.RankTable
	}
	load := func(t *testing.T, f *File) loaded {
		t.Helper()
		var l loaded
		var err error
		if l.tau, err = f.Tau(); err != nil {
			t.Fatal(err)
		}
		tsd, err := f.TSD()
		if err != nil {
			t.Fatal(err)
		}
		gct, err := f.GCT()
		if err != nil {
			t.Fatal(err)
		}
		if l.rankings, err = f.MeasureRankings(core.MeasureComponent); err != nil {
			t.Fatal(err)
		}
		l.tsd, l.gct = tsd.Flatten(), gct.Flatten()
		return l
	}

	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		viewed := load(t, f)
		hostLittleEndian = false
		defer func() { hostLittleEndian = true }()
		copied := load(t, f)

		if !reflect.DeepEqual(viewed, copied) {
			t.Fatal("portable decoder disagrees with the in-place views")
		}
		firstPair := func(rk core.RankTable) *core.RankPair { return &rk[2].Chunks()[0][0] }
		if &copied.tau[0] == &viewed.tau[0] || &copied.tsd.Forest[0] == &viewed.tsd.Forest[0] ||
			firstPair(copied.rankings) == firstPair(viewed.rankings) {
			t.Fatal("portable decoder returned views, not copies")
		}
		if mode == ModeMmap && f.Mode() == ModeMmap {
			payload, err := f.Section(SecTruss, core.MeasureTruss)
			if err != nil {
				t.Fatal(err)
			}
			if unsafe.Pointer(&viewed.tau[0]) != unsafe.Pointer(&payload[0]) {
				t.Fatal("mmap tau is not a view of the mapping")
			}
			payload, err = f.Section(SecRankings, core.MeasureComponent)
			if err != nil {
				t.Fatal(err)
			}
			at := uintptr(unsafe.Pointer(firstPair(viewed.rankings)))
			if lo := uintptr(unsafe.Pointer(&payload[0])); at < lo || at >= lo+uintptr(len(payload)) {
				t.Fatal("mmap rankings are not views of the mapping")
			}
		}
	})
}

// TestFileRefcount pins the Retain/Close lifecycle that lets superseded
// snapshots release a mapping only after its last user is gone.
func TestFileRefcount(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, buildIndexes(g))
	f, err := OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Refs(); got != 1 {
		t.Fatalf("fresh handle Refs() = %d, want 1", got)
	}
	if f.Retain() != f {
		t.Fatal("Retain did not return the receiver")
	}
	if got := f.Refs(); got != 2 {
		t.Fatalf("after Retain Refs() = %d, want 2", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Tau(); err != nil {
		t.Fatalf("handle with live reference failed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("over-close succeeded")
	}
}

func TestOpenMissingFileIsNotExist(t *testing.T) {
	g := testGraph(t)
	_, err := OpenFile(filepath.Join(t.TempDir(), FileName), g)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

// TestOpenFileRequiresGraph: a file is always opened against the graph
// it must describe; a nil graph is an error, not a fingerprint panic.
func TestOpenFileRequiresGraph(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, Indexes{Tau: truss.Decompose(g)})
	if f, err := OpenFile(path, nil); err == nil {
		f.Close()
		t.Fatal("OpenFile with a nil graph succeeded")
	}
}

func TestOpenRejectsNonIndexFile(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), FileName)
	if err := os.WriteFile(path, []byte("not an index file at all, just text"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path, g)
	if !errors.Is(err, ErrNotIndexFile) {
		t.Fatalf("err = %v, want ErrNotIndexFile", err)
	}
}

func TestOpenRejectsTruncatedHeader(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), FileName)
	if err := os.WriteFile(path, []byte{0x54, 0x44}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path, g)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CorruptError", err)
	}
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, Indexes{Tau: truss.Decompose(g)})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[4:8], Version+1)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFile(path, g)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("version error = %+v", err)
	}
}

func TestOpenRejectsWrongFingerprint(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, Indexes{Tau: truss.Decompose(g)})

	// A graph with one extra edge must be refused.
	other := gen.BarabasiAlbert(g.N(), 3, 7)
	_, err := OpenFile(path, other)
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("err = %v, want ErrStaleIndex", err)
	}
	var fe *FingerprintError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %T, want *FingerprintError", err)
	}
	if fe.Got == fe.Want {
		t.Fatal("fingerprint error carries identical fingerprints")
	}
}

// corruptSection flips one payload byte of the named section in place.
func corruptSection(t *testing.T, path string, target Section) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := int(binary.LittleEndian.Uint32(blob[40:44]))
	for i := 0; i < count; i++ {
		e := blob[headerSize+tocEntrySize*i:]
		if Section(binary.LittleEndian.Uint32(e[0:4])) != target {
			continue
		}
		off := binary.LittleEndian.Uint64(e[12:20])
		blob[off+3] ^= 0xFF
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("section %v not found in %s", target, path)
}

// TestSectionChecksumDetectsCorruption pins the per-section damage
// contract of the decode path: the file still opens, the damaged section's
// accessor returns a typed *CorruptError, and its siblings keep serving.
func TestSectionChecksumDetectsCorruption(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)

	path := saveTo(t, g, ix)
	corruptSection(t, path, SecTruss)
	f, err := OpenFile(path, g, WithMode(ModeDecode)) // header is intact, so open succeeds
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Tau(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Tau() err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if err2 := func() error { _, err := f.Tau(); return err }(); !errors.As(err2, &ce) || ce.Section != SecTruss {
		t.Fatalf("corrupt error = %+v, want Section=truss", err2)
	}
	// Siblings still serve: checksums are per section.
	if !f.Has(SecTruss) {
		t.Fatal("damaged section vanished from the listing")
	}
	if _, err := f.GCT(); err != nil {
		t.Fatalf("sibling gct section failed: %v", err)
	}
	if _, err := f.TSD(); err != nil {
		t.Fatalf("sibling tsd section failed: %v", err)
	}
}

// TestVerifySectionsFindsMmapDamage pins the mmap-mode integrity contract:
// the warm path trusts the page cache (no checksum pass at open — that is
// what keeps warm starts O(TOC)), structural validation still rejects
// damage that breaks a section's layout, and VerifySections is the
// explicit full-CRC pass that flags any flipped payload byte, naming the
// section it lives in.
func TestVerifySectionsFindsMmapDamage(t *testing.T) {
	g := testGraph(t)
	ix := buildIndexes(g)

	path := saveTo(t, g, ix)
	f, err := OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mode() == ModeMmap {
		if err := f.VerifySections(); err != nil {
			t.Fatalf("VerifySections on a pristine file: %v", err)
		}
	}
	f.Close()

	corruptSection(t, path, SecTruss) // flips a tau value: structurally silent
	f, err = OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mode() != ModeMmap {
		t.Skip("mmap unsupported on this platform")
	}
	err = f.VerifySections()
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != SecTruss {
		t.Fatalf("VerifySections = %v, want *CorruptError for the truss section", err)
	}
	// A structurally damaged section is caught on access even without the
	// explicit pass: flip a slab count field rather than an array element.
	path2 := saveTo(t, g, ix)
	corruptSection(t, path2, SecTSD) // byte 3 of the slab's first count word
	f2, err := OpenFile(path2, g)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.TSD(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("TSD() on structurally damaged slab = %v, want ErrCorrupt", err)
	}
	if _, err := f2.Tau(); err != nil {
		t.Fatalf("sibling truss section failed: %v", err)
	}
}

func TestTruncatedPayloadIsCorrupt(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, buildIndexes(g))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file in half: the TOC still points past the new EOF.
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	bothModes(t, func(t *testing.T, mode Mode) {
		if _, err := OpenFile(path, g, WithMode(mode)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestRankingsRejectOutOfRangeVertex(t *testing.T) {
	// Poison one ranking entry with a vertex the graph does not have.
	checkRankingsRejected(t, "out of range", func(g *graph.Graph, rows [][]core.RankPair) {
		rows[2][0].V = int32(g.N() + 100)
	})
}

// TestRankingsRejectMalformedRows: a ranking entry without a positive
// score, not strictly after its predecessor in canonical order, repeating
// a vertex of its ranking, or for a vertex the k-1 ranking lacks is
// corrupt in both modes. The splice that patches a table relies on all
// four, so such a table would otherwise make it list a vertex twice or
// (a score of MinInt32) never finish. Row 0, the parameter-free ranking,
// must list each vertex of the k = 2 ranking once, canonically, at a
// score no higher than the last k listing it, and row 1 must be empty.
func TestRankingsRejectMalformedRows(t *testing.T) {
	canonical := func(a, b core.RankPair) int {
		if a.Score != b.Score {
			return int(b.Score - a.Score)
		}
		return int(a.V - b.V)
	}
	// replaceLast returns row with its last entry replaced by e, in
	// canonical position.
	replaceLast := func(row []core.RankPair, e core.RankPair) []core.RankPair {
		row = append(slices.Clone(row[:len(row)-1]), e)
		slices.SortFunc(row, canonical)
		return row
	}
	cases := []struct {
		name, reason string
		damage       func(g *graph.Graph, rows [][]core.RankPair)
	}{
		// The last entry, so that only the score check can catch it.
		{"zero score", "not positive", func(_ *graph.Graph, rows [][]core.RankPair) { rows[2][len(rows[2])-1].Score = 0 }},
		{"MinInt32 score", "not positive", func(_ *graph.Graph, rows [][]core.RankPair) {
			rows[2][len(rows[2])-1].Score = math.MinInt32
		}},
		{"swapped entries", "not after", func(_ *graph.Graph, rows [][]core.RankPair) {
			rows[2][0], rows[2][1] = rows[2][1], rows[2][0]
		}},
		{"repeated entry", "not after", func(_ *graph.Graph, rows [][]core.RankPair) { rows[2][1] = rows[2][0] }},
		{"repeated vertex", "listed last", func(_ *graph.Graph, rows [][]core.RankPair) {
			// The copy scores above every entry, so the row stays in order.
			first := rows[2][0]
			rows[2] = slices.Insert(slices.Clone(rows[2]), 0, core.RankPair{V: first.V, Score: first.Score + 1})
		}},
		{"not nested", "listed last", func(_ *graph.Graph, rows [][]core.RankPair) {
			// Drop a vertex of the k=3 ranking from the k=2 one.
			v := rows[3][0].V
			rows[2] = slices.DeleteFunc(slices.Clone(rows[2]), func(e core.RankPair) bool { return e.V == v })
		}},
		{"pfree vertex missing at k=2", "listed last at k=0", func(g *graph.Graph, rows [][]core.RankPair) {
			// Swap a listed vertex for one no ranking lists.
			v := int32(0)
			for slices.ContainsFunc(rows[2], func(e core.RankPair) bool { return e.V == v }) {
				v++
			}
			if int(v) >= g.N() {
				t.Fatal("every vertex is listed at k=2")
			}
			rows[0] = replaceLast(rows[0], core.RankPair{V: v, Score: 1})
		}},
		{"pfree row short", "k=0 has", func(_ *graph.Graph, rows [][]core.RankPair) {
			rows[0] = rows[0][:len(rows[0])-1]
		}},
		{"pfree score above last k", "scores", func(_ *graph.Graph, rows [][]core.RankPair) {
			// The first entry stays first; no k up to len(rows)-1 lists it there.
			rows[0][0].Score = int32(len(rows))
		}},
		{"pfree repeated vertex", "listed twice", func(_ *graph.Graph, rows [][]core.RankPair) {
			first := rows[0][0]
			if first.Score < 2 {
				t.Fatalf("row 0 %v too flat for the damage", rows[0])
			}
			rows[0] = replaceLast(rows[0], core.RankPair{V: first.V, Score: 1})
		}},
		{"pfree swapped entries", "not after", func(_ *graph.Graph, rows [][]core.RankPair) {
			rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
		}},
		{"pfree zero score", "not positive", func(_ *graph.Graph, rows [][]core.RankPair) {
			rows[0][len(rows[0])-1].Score = 0
		}},
		{"non-empty row 1", "k=1", func(_ *graph.Graph, rows [][]core.RankPair) {
			rows[1] = rows[2][:1]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkRankingsRejected(t, tc.reason, tc.damage) })
	}
}

// checkRankingsRejected saves the test graph's indexes with the truss
// table's rows damaged by damage, and requires both modes to report the
// table corrupt, for a reason that contains reason.
func checkRankingsRejected(t *testing.T, reason string, damage func(g *graph.Graph, rows [][]core.RankPair)) {
	t.Helper()
	g := testGraph(t)
	ix := buildIndexes(g)
	rows := make([][]core.RankPair, len(ix.MeasureRankings[core.MeasureTruss]))
	for k, row := range ix.MeasureRankings[core.MeasureTruss] {
		for _, c := range row.Chunks() {
			rows[k] = append(rows[k], c...)
		}
	}
	if len(rows) < 4 || len(rows[0]) < 2 || len(rows[2]) < 2 || len(rows[3]) == 0 {
		t.Fatalf("truss rankings %v too small for the damage", rows)
	}
	damage(g, rows)
	ix.MeasureRankings[core.MeasureTruss] = core.NewRankTable(rows)
	path := saveTo(t, g, ix)
	bothModes(t, func(t *testing.T, mode Mode) {
		f, err := OpenFile(path, g, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, err = f.MeasureRankings(core.MeasureTruss)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), reason) {
			t.Fatalf("MeasureRankings(truss) err = %v, want ErrCorrupt for %q", err, reason)
		}
	})
}

// TestOpenRejectsOverlappingSections: a TOC whose sections share bytes
// with each other, or with the header and TOC, is corrupt at open in both
// modes. Each case stays 8-byte aligned and
// inside the file, so only the overlap check can catch it.
func TestOpenRejectsOverlappingSections(t *testing.T) {
	g := testGraph(t)
	pristine, err := os.ReadFile(saveTo(t, g, buildIndexes(g)))
	if err != nil {
		t.Fatal(err)
	}
	// TOC entry i: offset at +12, length at +20.
	offsetField := func(blob []byte, i int) []byte { return blob[headerSize+tocEntrySize*i+12:] }
	if first := binary.LittleEndian.Uint64(pristine[headerSize+20:]); first <= 8 {
		t.Fatalf("first section is %d bytes; the shared-bytes case needs more than 8", first)
	}
	cases := []struct {
		name   string
		damage func(blob []byte)
	}{
		{"sections share bytes", func(blob []byte) {
			// Point the second section 8 bytes into the first.
			first := binary.LittleEndian.Uint64(offsetField(blob, 0))
			binary.LittleEndian.PutUint64(offsetField(blob, 1), first+8)
		}},
		{"section starts inside the TOC", func(blob []byte) {
			binary.LittleEndian.PutUint64(offsetField(blob, 0), uint64(align8(headerSize)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := bytes.Clone(pristine)
			tc.damage(blob)
			path := filepath.Join(t.TempDir(), FileName)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			bothModes(t, func(t *testing.T, mode Mode) {
				_, err := OpenFile(path, g, WithMode(mode))
				var ce *CorruptError
				if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
					t.Fatalf("OpenFile err = %v, want a *CorruptError", err)
				}
			})
		})
	}
}

func TestSaveIsAtomicAndCreatesDirs(t *testing.T) {
	g := testGraph(t)
	dir := filepath.Join(t.TempDir(), "a", "b")
	path := filepath.Join(dir, FileName)
	if err := Save(path, g, Indexes{Tau: truss.Decompose(g)}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("directory holds %v, want only %s (no temp leftovers)", entries, FileName)
	}
	f, err := OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestFingerprintSensitivity(t *testing.T) {
	g := testGraph(t)
	same := testGraph(t)
	if Fingerprint(g) != Fingerprint(same) {
		t.Fatal("identical graphs fingerprint differently")
	}
	if Fingerprint(g) == Fingerprint(gen.BarabasiAlbert(200, 2, 1)) {
		t.Fatal("different graphs share a fingerprint")
	}
}

// TestTOCOffsetOverflowIsCorrupt crafts a TOC entry whose offset+length
// wraps around uint64: the sum is small, but honoring it would hand a
// huge length to make([]byte, n). Open must call it corrupt up front.
func TestTOCOffsetOverflowIsCorrupt(t *testing.T) {
	g := testGraph(t)
	path := saveTo(t, g, Indexes{Tau: truss.Decompose(g)})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First TOC entry: offset at +12, length at +20 (v2+ layout).
	binary.LittleEndian.PutUint64(blob[headerSize+12:], 1<<63)
	binary.LittleEndian.PutUint64(blob[headerSize+20:], 1<<63+100)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, g); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
