// Package store persists the library's search accelerators — the truss
// decomposition, the TSD and GCT indexes and the ranking tables of every
// measure — in one versioned binary file, so a serving process can warm
// start from disk instead of paying the full build cost on every boot.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "TDIX"
//	4       4     format version (currently 4)
//	8       32    SHA-256 fingerprint of the graph the indexes were built from
//	40      4     section count
//	44      28*c  table of contents: {id u32, measure u32, crc32c u32, offset u64, length u64}
//	...           section payloads, in TOC order, each starting 8-byte aligned
//
// Every section is independently addressable (offset + length) and
// checksummed (CRC-32C over the payload), so a reader can load exactly the
// indexes a query workload needs and detect bit rot in any of them. The
// fingerprint binds the file to one graph: OpenFile refuses a file whose
// fingerprint does not match the graph it is asked to serve, returning a
// *FingerprintError (errors.Is(err, ErrStaleIndex)) so callers can fall
// back to a rebuild.
//
// Payloads are flat slabs of fixed-width little-endian arrays (see slab.go):
// section offsets and every array inside a section are 8-byte aligned, so
// the one slab reader views each array in place. The two read modes differ
// only in how a section's bytes arrive — sliced from a read-only mapping
// (the default), or read from disk into a fresh aligned buffer and
// CRC-checked — never in how they are parsed. Every TOC entry is tagged
// with the diversity measure its section belongs to (0 = truss,
// 1 = component, 2 = core).
//
// Compatibility policy: the format version is bumped on any change to the
// header, the TOC or a slab codec, and the reader accepts exactly the
// current version, rejecting every other with *VersionError. The file is a
// cache of derivable data, so an older file costs one rebuild, after which
// the DB persists it anew. Unknown section IDs (or measure tags) inside the
// current version are skipped, so adding or retiring an optional section
// does not force a version bump.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"trussdiv/internal/core"
	"trussdiv/internal/graph"
)

const (
	// Magic identifies a trussdiv index store file ("TDIX" on disk).
	Magic = uint32(0x58494454)
	// Version is the format version this package writes and the only one
	// it reads; see the package comment for the compatibility policy.
	Version = uint32(4)
	// FileName is the conventional file name inside an index directory.
	FileName = "indexes.tdx"

	headerSize   = 44
	tocEntrySize = 28 // {id, measure, crc, offset, length}
	// maxSections bounds the TOC a reader will accept; the format defines
	// five section IDs across three measures, so anything much larger is a
	// corrupt header.
	maxSections = 64
)

// Section identifies one independently loadable part of an index file.
type Section uint32

const (
	// SecTruss is the global truss decomposition: one int32 trussness per
	// edge, indexed by edge ID.
	SecTruss Section = 1
	// SecTSD is the TSD index as a flat slab (slab.go).
	SecTSD Section = 2
	// SecGCT is the GCT index, serialized like SecTSD.
	SecGCT Section = 3
	// SecRankings is one measure's ranking table: the per-k vertex
	// rankings and the parameter-free one; the measure tag in the TOC says
	// which measure it ranks (untagged/truss = the hybrid engine's).
	SecRankings Section = 4
	// SecEpoch is the epoch counter of the snapshot the file was persisted
	// from (8 bytes, little-endian), so a warm start resumes the version
	// numbering of an updated graph instead of restarting at 1.
	SecEpoch Section = 5
	// Section IDs 6, 7 and 8 are retired. Earlier writers stored the
	// global edge supports (6), the graph's CSR arrays (7) and a
	// parameter-free ranking (8) there; no reader needs them, since the
	// DB recounts supports when it rebuilds τ, always holds the graph it
	// opens a file against, and reads the parameter-free ranking from row
	// 0 of the rankings section. No writer may reuse the IDs.
)

// Measure tags on TOC entries, binding a section to the diversity
// measure it accelerates.
const (
	measureCodeTruss     = uint32(0)
	measureCodeComponent = uint32(1)
	measureCodeCore      = uint32(2)
)

// measureCode maps a measure to its on-disk tag (truss for anything
// unknown — writers only emit known measures).
func measureCode(m core.Measure) uint32 {
	switch m.Normalize() {
	case core.MeasureComponent:
		return measureCodeComponent
	case core.MeasureCore:
		return measureCodeCore
	}
	return measureCodeTruss
}

// measureFromCode maps an on-disk tag back; ok is false for tags this
// reader does not know (sections from a newer writer, skipped).
func measureFromCode(c uint32) (core.Measure, bool) {
	switch c {
	case measureCodeTruss:
		return core.MeasureTruss, true
	case measureCodeComponent:
		return core.MeasureComponent, true
	case measureCodeCore:
		return core.MeasureCore, true
	}
	return "", false
}

// SectionRef identifies one section instance in a file: the section kind
// plus the measure it is tagged with.
type SectionRef struct {
	Section Section
	Measure core.Measure
}

// String names the section instance for error messages and status
// listings: truss-measure sections keep their bare names ("tsd"), other
// measures are suffixed ("rankings@component").
func (r SectionRef) String() string {
	if r.Measure.Normalize() == core.MeasureTruss {
		return r.Section.String()
	}
	return r.Section.String() + "@" + string(r.Measure)
}

// String names the section for error messages.
func (s Section) String() string {
	switch s {
	case SecTruss:
		return "truss"
	case SecTSD:
		return "tsd"
	case SecGCT:
		return "gct"
	case SecRankings:
		return "rankings"
	case SecEpoch:
		return "epoch"
	}
	return fmt.Sprintf("section(%d)", uint32(s))
}

// knownSections lists every section ID this reader understands, in the
// canonical listing order.
var knownSections = []Section{SecTruss, SecTSD, SecGCT, SecRankings, SecEpoch}

// Sentinel errors, each matched by errors.Is against the typed error that
// carries the details.
var (
	// ErrNotIndexFile reports a file that does not start with the store
	// magic — not a trussdiv index at all.
	ErrNotIndexFile = errors.New("store: not a trussdiv index file")
	// ErrVersion reports a format version this reader does not support;
	// the concrete error is *VersionError.
	ErrVersion = errors.New("store: unsupported index format version")
	// ErrStaleIndex reports a fingerprint mismatch — the file was built
	// from a different graph; the concrete error is *FingerprintError.
	ErrStaleIndex = errors.New("store: index file does not match the graph")
	// ErrCorrupt reports a structurally damaged file (truncation, bad
	// checksum, impossible sizes); the concrete error is *CorruptError.
	ErrCorrupt = errors.New("store: corrupt index file")
)

// VersionError reports an index file written by an incompatible format
// version.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("store: index format version %d, this reader supports only version %d",
		e.Got, e.Want)
}

// Is makes errors.Is(err, ErrVersion) match.
func (e *VersionError) Is(target error) bool { return target == ErrVersion }

// FingerprintError reports an index file built from a different graph than
// the one it is being opened against.
type FingerprintError struct {
	Got, Want [32]byte
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("store: index fingerprint %x does not match graph fingerprint %x",
		e.Got[:8], e.Want[:8])
}

// Is makes errors.Is(err, ErrStaleIndex) match.
func (e *FingerprintError) Is(target error) bool { return target == ErrStaleIndex }

// CorruptError reports structural damage: a truncated file, a checksum
// mismatch, or a section whose contents cannot describe the graph.
type CorruptError struct {
	Section Section // 0 when the damage is in the header or TOC
	Reason  string
	Err     error // underlying cause, when one exists
}

func (e *CorruptError) Error() string {
	where := "header"
	if e.Section != 0 {
		where = e.Section.String() + " section"
	}
	msg := fmt.Sprintf("store: corrupt index file: %s: %s", where, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *CorruptError) Unwrap() error { return e.Err }

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint hashes the graph structure (vertex count, edge count, and
// the canonical edge list) so an index file can prove it was built from
// the same graph it is asked to serve.
func Fingerprint(g *graph.Graph) [32]byte { return g.Fingerprint() }

// PathIn returns the conventional index file path inside dir.
func PathIn(dir string) string { return filepath.Join(dir, FileName) }

// Indexes bundles the sections a file can hold. Nil fields are simply
// absent: Write persists only what is present, and ReadAll returns nil for
// sections the file does not contain.
type Indexes struct {
	// Tau is the global truss decomposition, indexed by edge ID.
	Tau []int32
	// TSD is the per-vertex maximum-spanning-forest index (paper §5).
	TSD *core.TSDIndex
	// GCT is the compressed supernode/superedge index (paper §6).
	GCT *core.GCTIndex
	// MeasureRankings are the ranking tables of each measure (row 0 the
	// parameter-free ranking, row k >= 2 the ranking at k, each sorted by
	// score descending, vertex ascending);
	// each present measure becomes one measure-tagged rankings section.
	// The truss-tagged one is the hybrid engine's table.
	MeasureRankings map[core.Measure]core.RankTable
	// Epoch is the snapshot version the indexes describe; 0 means "not
	// recorded" and writes no section.
	Epoch uint64
}

// Write serializes the present sections of ix in format Version,
// fingerprinted against g, and returns the bytes written. Every payload starts on an
// 8-byte file offset so a mmap reader can serve views in place.
func Write(w io.Writer, g *graph.Graph, ix Indexes) (int64, error) {
	type section struct {
		id      Section
		measure uint32
		payload []byte
	}
	var secs []section
	if ix.Tau != nil {
		if len(ix.Tau) != g.M() {
			return 0, fmt.Errorf("store: truss decomposition has %d entries, graph has %d edges",
				len(ix.Tau), g.M())
		}
		secs = append(secs, section{SecTruss, measureCodeTruss, encodeInt32s(ix.Tau)})
	}
	if ix.TSD != nil {
		secs = append(secs, section{SecTSD, measureCodeTruss, encodeTSDSlab(ix.TSD)})
	}
	if ix.GCT != nil {
		secs = append(secs, section{SecGCT, measureCodeTruss, encodeGCTSlab(ix.GCT)})
	}
	// Per-measure ranking sections, in fixed measure order (truss first)
	// so the file layout is deterministic.
	for _, m := range core.AllMeasures() {
		perK, ok := ix.MeasureRankings[m]
		if !ok || perK == nil {
			continue
		}
		payload, err := encodeRankingsSlab(perK, g.N())
		if err != nil {
			return 0, err
		}
		secs = append(secs, section{SecRankings, measureCode(m), payload})
	}
	if ix.Epoch != 0 {
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint64(payload, ix.Epoch)
		secs = append(secs, section{SecEpoch, measureCodeTruss, payload})
	}

	fp := Fingerprint(g)
	header := make([]byte, headerSize+tocEntrySize*len(secs))
	binary.LittleEndian.PutUint32(header[0:4], Magic)
	binary.LittleEndian.PutUint32(header[4:8], Version)
	copy(header[8:40], fp[:])
	binary.LittleEndian.PutUint32(header[40:44], uint32(len(secs)))
	offset := align8(len(header))
	for i, s := range secs {
		e := header[headerSize+tocEntrySize*i:]
		binary.LittleEndian.PutUint32(e[0:4], uint32(s.id))
		binary.LittleEndian.PutUint32(e[4:8], s.measure)
		binary.LittleEndian.PutUint32(e[8:12], crc32.Checksum(s.payload, crcTable))
		binary.LittleEndian.PutUint64(e[12:20], uint64(offset))
		binary.LittleEndian.PutUint64(e[20:28], uint64(len(s.payload)))
		offset = align8(offset + len(s.payload))
	}

	var pad [8]byte
	written := int64(0)
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(header); err != nil {
		return written, err
	}
	for _, s := range secs {
		if gap := align8(int(written)) - int(written); gap > 0 {
			if err := emit(pad[:gap]); err != nil {
				return written, err
			}
		}
		if err := emit(s.payload); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Save atomically writes the index file at path (creating parent
// directories as needed): the bytes land in a temporary sibling first and
// replace path only on success, so readers never observe a half-written
// file. A mapping held by an already-open File is unaffected: the rename
// replaces the inode, never rewrites it.
func Save(path string, g *graph.Graph, ix Indexes) error {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := Write(tmp, g, ix); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
