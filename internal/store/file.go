package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"unsafe"

	"trussdiv/internal/core"
	"trussdiv/internal/graph"
)

// Mode selects how an opened File serves section payloads.
type Mode int

const (
	// ModeMmap (the default) maps the whole file read-only once and slices
	// each requested section out of the mapping, so the slab views point
	// straight into the page cache. Integrity in this mode is structural:
	// the header, fingerprint, and TOC are validated at open, and each
	// section's layout is validated as it is parsed, but payload checksums
	// are not recomputed on the warm path — that would fault every page of
	// the mapping and erase the point of mmap. Call VerifySections to check
	// every stored CRC on demand. On a platform without mmap or with
	// big-endian byte order the handle falls back to ModeDecode; File.Mode
	// reports the mode actually in effect.
	ModeMmap Mode = iota
	// ModeDecode reads each requested section from disk into a fresh
	// 8-byte-aligned buffer and verifies its CRC, holding no mapping and no
	// descriptor between calls. The slab views then point into that buffer.
	ModeDecode
)

// String names the mode for status output.
func (m Mode) String() string {
	if m == ModeDecode {
		return "decode"
	}
	return "mmap"
}

// OpenOption configures OpenFile/OpenGraph.
type OpenOption func(*openConfig)

type openConfig struct {
	mode Mode
}

// WithMode overrides the default (ModeMmap) open mode.
func WithMode(m Mode) OpenOption {
	return func(c *openConfig) { c.mode = m }
}

type tocEntry struct {
	crc    uint32
	offset uint64
	length uint64
}

// File is an opened, header-validated index file whose sections load on
// demand; obtain one with OpenFile (or OpenGraph) and release it with
// Close. In mmap mode the File owns a read-only mapping that section
// accessors return views into, guarded by a reference count: Retain/Close
// pair around every owner of such views, and the mapping is unmapped only
// when the last reference closes. In decode mode section reads reopen the
// file, so the File holds no descriptor between calls. Both modes are safe
// for concurrent use.
type File struct {
	path  string
	g     *graph.Graph
	toc   map[SectionRef]tocEntry
	data  []byte // the mapping; nil in decode mode
	refs  atomic.Int64
	reads atomic.Int64 // decode-path payload reads, a test tripwire
}

// OpenFile validates the file at path against g — magic, format version,
// graph fingerprint, TOC sanity — and returns a handle whose sections load
// on demand. A missing file surfaces as fs.ErrNotExist; a file built from
// a different graph fails with *FingerprintError (ErrStaleIndex), and a
// file in any format other than Version with *VersionError (ErrVersion).
// See Mode for how payloads are served.
//
// Opening is O(header + TOC) in mmap mode: no payload byte is read or
// checksummed until a section accessor asks for it, and a section that then
// fails validation errors alone — one rotten section never takes down its
// siblings. Decode-mode accessors additionally verify the stored CRC on
// every read; in mmap mode use VerifySections for an explicit full check.
func OpenFile(path string, g *graph.Graph, opts ...OpenOption) (*File, error) {
	if g == nil {
		return nil, fmt.Errorf("store: OpenFile requires a graph; use OpenGraph to boot from the file alone")
	}
	return open(path, g, opts)
}

// OpenGraph opens an index file standalone — no pre-loaded graph — by
// materializing the graph from the file's own CSR section and
// verifying the header fingerprint against it. The returned handle serves
// the graph via Graph() and every other section exactly like OpenFile.
func OpenGraph(path string, opts ...OpenOption) (*File, error) {
	return open(path, nil, opts)
}

func open(path string, g *graph.Graph, opts []OpenOption) (*File, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	n, readErr := io.ReadFull(fd, hdr[:])
	// Judge the magic before a short read: a random small file is "not an
	// index", while a file that starts like one but ends early is corrupt.
	if n >= 4 {
		if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != Magic {
			return nil, fmt.Errorf("%w (magic %#x)", ErrNotIndexFile, magic)
		}
	}
	if readErr != nil {
		return nil, &CorruptError{Reason: "truncated header", Err: readErr}
	}
	version := binary.LittleEndian.Uint32(hdr[4:8])
	if version != Version {
		return nil, &VersionError{Got: version, Want: Version}
	}
	var fp [32]byte
	copy(fp[:], hdr[8:40])
	if g != nil {
		if want := Fingerprint(g); fp != want {
			return nil, &FingerprintError{Got: fp, Want: want}
		}
	}
	count := binary.LittleEndian.Uint32(hdr[40:44])
	if count > maxSections {
		return nil, &CorruptError{Reason: fmt.Sprintf("implausible section count %d", count)}
	}
	tocBytes := make([]byte, tocEntrySize*int(count))
	if _, err := io.ReadFull(fd, tocBytes); err != nil {
		return nil, &CorruptError{Reason: "truncated table of contents", Err: err}
	}
	toc := make(map[SectionRef]tocEntry, count)
	accepted := make([]SectionRef, 0, count) // TOC order, for checkNoOverlap
	for i := 0; i < int(count); i++ {
		e := tocBytes[tocEntrySize*i:]
		id := Section(binary.LittleEndian.Uint32(e[0:4]))
		mcode := binary.LittleEndian.Uint32(e[4:8])
		entry := tocEntry{
			crc:    binary.LittleEndian.Uint32(e[8:12]),
			offset: binary.LittleEndian.Uint64(e[12:20]),
			length: binary.LittleEndian.Uint64(e[20:28]),
		}
		// Compare without summing: offset+length can wrap in uint64, and a
		// wrapped sum would wave a huge length through to make([]byte, n).
		size := uint64(st.Size())
		if entry.length > size || entry.offset > size-entry.length || entry.offset < headerSize {
			return nil, &CorruptError{Section: id,
				Reason: fmt.Sprintf("section extends beyond the file (offset %d, length %d, file %d)",
					entry.offset, entry.length, st.Size())}
		}
		if entry.offset%8 != 0 {
			// Alignment is a format invariant; an unaligned offset means a
			// corrupt TOC, and views built over it would be misaligned.
			return nil, &CorruptError{Section: id,
				Reason: fmt.Sprintf("section offset %d not 8-byte aligned", entry.offset)}
		}
		measure, knownMeasure := measureFromCode(mcode)
		if !knownMeasure {
			// A measure tag from a newer writer: skip the section, keep the
			// file, same policy as unknown section IDs.
			continue
		}
		switch id {
		case SecTruss, SecTSD, SecGCT, SecRankings, SecEpoch, SecSupports, SecGraph:
			ref := SectionRef{Section: id, Measure: measure}
			if _, dup := toc[ref]; dup {
				return nil, &CorruptError{Section: id, Reason: "duplicate section"}
			}
			toc[ref] = entry
			accepted = append(accepted, ref)
		default:
			// Unknown sections within the current version are additions
			// from a newer writer; skip them rather than failing the file.
		}
	}
	if err := checkNoOverlap(toc, accepted, headerSize+tocEntrySize*uint64(count)); err != nil {
		return nil, err
	}

	f := &File{path: path, g: g, toc: toc}
	f.refs.Store(1)

	// Map. A mmap failure falls back to the decode path silently — the
	// mode is an optimization, not a contract about file contents.
	if cfg.mode == ModeMmap && mmapSupported && hostLittleEndian && st.Size() > 0 {
		if data, err := mmapFile(fd, st.Size()); err == nil {
			f.data = data
		}
	}

	if g == nil {
		// OpenGraph: materialize the graph from the file itself, then close
		// the trust loop by recomputing the fingerprint over it.
		gv, err := f.Graph()
		if err == nil && gv == nil {
			err = &CorruptError{Section: SecGraph, Reason: "file has no graph section"}
		}
		if err == nil && Fingerprint(gv) != fp {
			err = &CorruptError{Section: SecGraph, Reason: "graph section does not match the header fingerprint"}
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		f.g = gv
	}
	return f, nil
}

// checkNoOverlap rejects a TOC whose accepted sections share bytes with
// each other or with the header and TOC, which end at tocEnd. The writer
// lays payloads out back to back in TOC order from align8(tocEnd), so
// every valid file passes. It runs after the per-entry bounds check, so
// offset+length cannot wrap. O(count log count): sort by offset, then
// each section must start at or after the end of the one before it.
func checkNoOverlap(toc map[SectionRef]tocEntry, accepted []SectionRef, tocEnd uint64) error {
	slices.SortStableFunc(accepted, func(a, b SectionRef) int {
		ea, eb := toc[a], toc[b]
		return cmp.Or(cmp.Compare(ea.offset, eb.offset), cmp.Compare(ea.length, eb.length))
	})
	end := tocEnd
	for i, ref := range accepted {
		e := toc[ref]
		if e.offset < end {
			reason := fmt.Sprintf("section at offset %d starts inside the header and table of contents (end %d)",
				e.offset, tocEnd)
			if i > 0 {
				reason = fmt.Sprintf("section at offset %d overlaps the %v section (end %d)",
					e.offset, accepted[i-1].Section, end)
			}
			return &CorruptError{Section: ref.Section, Reason: reason}
		}
		end = e.offset + e.length
	}
	return nil
}

// Path returns the file's location on disk.
func (f *File) Path() string { return f.path }

// Mode reports how this handle serves sections: ModeMmap only when a
// mapping is actually live.
func (f *File) Mode() Mode {
	if f.data != nil {
		return ModeMmap
	}
	return ModeDecode
}

// Retain adds a reference and returns f, for handing the mapping to an
// additional owner; every Retain needs a matching Close.
func (f *File) Retain() *File {
	f.refs.Add(1)
	return f
}

// Refs reports the current reference count (diagnostics and tests).
func (f *File) Refs() int64 { return f.refs.Load() }

// PayloadReads counts section payload reads served through the decode
// path. In mmap mode it stays zero — the warm-start tripwire tests assert
// exactly that.
func (f *File) PayloadReads() int64 { return f.reads.Load() }

// Close drops one reference; the last Close unmaps the file. Views served
// from a mapped File (tau/support arrays, TSD/GCT structures, the graph)
// alias the mapping and die with it: callers must not touch them after
// their reference is gone.
func (f *File) Close() error {
	switch n := f.refs.Add(-1); {
	case n > 0:
		return nil
	case n < 0:
		return fmt.Errorf("store: File %s closed more times than retained", f.path)
	}
	if f.data != nil {
		data := f.data
		f.data = nil
		return munmapFile(data)
	}
	return nil
}

// Has reports whether the file contains the truss-measure section s; use
// HasMeasure for sections tagged with another measure.
func (f *File) Has(s Section) bool {
	return f.HasMeasure(s, core.MeasureTruss)
}

// HasMeasure reports whether the file contains section s tagged with
// measure m.
func (f *File) HasMeasure(s Section, m core.Measure) bool {
	_, ok := f.toc[SectionRef{Section: s, Measure: m.Normalize()}]
	return ok
}

// Sections lists the recognized section instances present in the file:
// truss sections in canonical order first, then the tagged sections of the
// other measures in measure order.
func (f *File) Sections() []SectionRef {
	var out []SectionRef
	for _, m := range core.AllMeasures() {
		for _, s := range knownSections {
			if f.HasMeasure(s, m) {
				out = append(out, SectionRef{Section: s, Measure: m})
			}
		}
	}
	return out
}

// Section returns the payload of one section instance, or (nil, nil) when
// absent. In mmap mode the bytes are a read-only view into the mapping
// (valid while the caller's reference is held, never modify); in decode
// mode they are a fresh checksummed copy.
func (f *File) Section(s Section, m core.Measure) ([]byte, error) {
	return f.payload(s, m)
}

// VerifySections recomputes every section's CRC against the value stored
// in the TOC and returns the first mismatch as a *CorruptError naming the
// section, checking in canonical section order. This is the explicit
// integrity pass mmap mode defers at open: it faults and reads every
// payload page, so it costs a full-file scan. Decode-mode handles verify
// too (each section is read back once).
func (f *File) VerifySections() error {
	for _, ref := range f.Sections() {
		payload, err := f.payload(ref.Section, ref.Measure)
		if err != nil {
			return err
		}
		if err := checkCRC(ref.Section, payload, f.toc[ref].crc); err != nil {
			return err
		}
	}
	return nil
}

// payload fetches one section's bytes, or nil when absent. This is the
// only place the two modes differ: mmap mode slices the mapping and
// defers the CRC to VerifySections; decode mode reads the one section from
// disk into a fresh buffer, allocated as []uint64 so it is 8-byte aligned,
// and checks its CRC. Either way the bytes start 8-byte aligned, so every
// slab decoder views them in place.
func (f *File) payload(s Section, m core.Measure) ([]byte, error) {
	entry, ok := f.toc[SectionRef{Section: s, Measure: m.Normalize()}]
	if !ok {
		return nil, nil
	}
	if f.data != nil {
		return f.data[entry.offset : entry.offset+entry.length], nil
	}
	f.reads.Add(1)
	words := make([]uint64, (entry.length+7)/8)
	payload := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), entry.length)
	fd, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	if _, err := fd.ReadAt(payload, int64(entry.offset)); err != nil {
		return nil, &CorruptError{Section: s, Reason: "truncated payload", Err: err}
	}
	if err := checkCRC(s, payload, entry.crc); err != nil {
		return nil, err
	}
	return payload, nil
}

func checkCRC(s Section, payload []byte, want uint32) error {
	if crc := crc32.Checksum(payload, crcTable); crc != want {
		return &CorruptError{Section: s,
			Reason: fmt.Sprintf("checksum mismatch (file %#x, computed %#x)", want, crc)}
	}
	return nil
}

// edgeArray loads a 4-bytes-per-edge int32 section (tau, supports).
func (f *File) edgeArray(s Section) ([]int32, error) {
	payload, err := f.payload(s, core.MeasureTruss)
	if payload == nil || err != nil {
		return nil, err
	}
	if len(payload) != 4*f.g.M() {
		return nil, &CorruptError{Section: s,
			Reason: fmt.Sprintf("%d payload bytes for %d edges", len(payload), f.g.M())}
	}
	return i32Array[int32](&slabR{sec: s, b: payload}, f.g.M()), nil
}

// Tau loads the global truss decomposition, or (nil, nil) when absent.
func (f *File) Tau() ([]int32, error) { return f.edgeArray(SecTruss) }

// Sup loads the global edge support array, or (nil, nil) when absent.
func (f *File) Sup() ([]int32, error) { return f.edgeArray(SecSupports) }

// TSD loads the TSD index bound to the file's graph, or (nil, nil) when
// absent.
func (f *File) TSD() (*core.TSDIndex, error) {
	payload, err := f.payload(SecTSD, core.MeasureTruss)
	if payload == nil || err != nil {
		return nil, err
	}
	return decodeTSDSlab(payload, f.g)
}

// GCT loads the GCT index bound to the file's graph, or (nil, nil) when
// absent.
func (f *File) GCT() (*core.GCTIndex, error) {
	payload, err := f.payload(SecGCT, core.MeasureTruss)
	if payload == nil || err != nil {
		return nil, err
	}
	return decodeGCTSlab(payload, f.g)
}

// Graph materializes the graph recorded in the file's CSR section, or
// (nil, nil) when the file has none. All four arrays are views into the
// section's bytes.
func (f *File) Graph() (*graph.Graph, error) {
	payload, err := f.payload(SecGraph, core.MeasureTruss)
	if payload == nil || err != nil {
		return nil, err
	}
	return decodeGraphSlab(payload)
}

// Epoch loads the recorded snapshot epoch, or (0, nil) when absent.
func (f *File) Epoch() (uint64, error) {
	payload, err := f.payload(SecEpoch, core.MeasureTruss)
	if payload == nil || err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, &CorruptError{Section: SecEpoch,
			Reason: fmt.Sprintf("%d payload bytes, want 8", len(payload))}
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// MeasureRankings loads the per-k rankings of measure m, or (nil, nil)
// when the file has no rankings section tagged with m. Rankings always
// materialize on the heap — scores are platform-width — so both modes pay
// one widening pass here; every other array-shaped section is served as
// views.
func (f *File) MeasureRankings(m core.Measure) ([][]core.VertexScore, error) {
	payload, err := f.payload(SecRankings, m)
	if payload == nil || err != nil {
		return nil, err
	}
	return decodeRankingsSlab(payload, f.g.N())
}

// ReadAll opens path against g through the decode path and loads every
// section it contains; the thin whole-file wrapper around the File handle
// API for callers that want plain heap-backed structures and no lifecycle.
func ReadAll(path string, g *graph.Graph) (*Indexes, error) {
	f, err := OpenFile(path, g, WithMode(ModeDecode))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ix Indexes
	if ix.Tau, err = f.Tau(); err != nil {
		return nil, err
	}
	if ix.Sup, err = f.Sup(); err != nil {
		return nil, err
	}
	if ix.TSD, err = f.TSD(); err != nil {
		return nil, err
	}
	if ix.GCT, err = f.GCT(); err != nil {
		return nil, err
	}
	for _, m := range core.AllMeasures() {
		if !f.HasMeasure(SecRankings, m) {
			continue
		}
		perK, err := f.MeasureRankings(m)
		if err != nil {
			return nil, err
		}
		if ix.MeasureRankings == nil {
			ix.MeasureRankings = make(map[core.Measure][][]core.VertexScore)
		}
		ix.MeasureRankings[m] = perK
	}
	if ix.Epoch, err = f.Epoch(); err != nil {
		return nil, err
	}
	return &ix, nil
}
