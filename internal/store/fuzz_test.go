package store

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trussdiv/internal/core"
	"trussdiv/internal/gen"
)

// FuzzOpenFile feeds arbitrary bytes to the reader as an index file. The
// mmap path builds views from offsets and counts taken from the file, so
// every open, accessor and VerifySections call, in both modes and through
// OpenGraph, must return a value or one of the store's typed errors — and
// never panic or hand out a view past the payload. The corpus is seeded
// with the v3 goldens, the rejected v1/v2 goldens, and truncations of
// each.
func FuzzOpenFile(f *testing.F) {
	for _, name := range []string{"golden_fig1_v3.tdx", "golden_fig1_v3_pfree.tdx", "golden_fig1.tdx", "golden_fig1_v2.tdx"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		for _, cut := range []int{headerSize - 1, headerSize + tocEntrySize, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:cut])
		}
	}
	g := gen.Fig1Graph()
	// Inputs run one at a time within a process, and every handle is
	// closed before the next input overwrites the file.
	path := filepath.Join(f.TempDir(), FileName)

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeMmap, ModeDecode} {
			file, err := OpenFile(path, g, WithMode(mode))
			exerciseFile(t, file, err)
		}
		file, err := OpenGraph(path)
		exerciseFile(t, file, err)
	})
}

// exerciseFile checks that an open returned a typed error or a handle,
// then calls every accessor on the handle, touching every element of what
// it returns, and closes it.
func exerciseFile(t *testing.T, f *File, err error) {
	t.Helper()
	requireTyped(t, "open", err)
	if err != nil {
		return
	}
	defer f.Close()

	tau, err := f.Tau()
	requireTyped(t, "Tau", err)
	sup, err := f.Sup()
	requireTyped(t, "Sup", err)
	_ = slices.Concat(tau, sup) // reads every element of both views
	if tsd, err := f.TSD(); requireTyped(t, "TSD", err) && tsd != nil {
		tsd.Flatten()
	}
	if gct, err := f.GCT(); requireTyped(t, "GCT", err) && gct != nil {
		gct.Flatten()
	}
	_, err = f.Graph() // graph.FromCSR reads every element it returns
	requireTyped(t, "Graph", err)
	_, err = f.Epoch()
	requireTyped(t, "Epoch", err)
	for _, m := range core.AllMeasures() {
		_, err = f.MeasureRankings(m)
		requireTyped(t, "MeasureRankings", err)
		for _, s := range knownSections {
			_, err = f.Section(s, m)
			requireTyped(t, "Section", err)
		}
	}
	requireTyped(t, "VerifySections", f.VerifySections())
}

// requireTyped fails unless err is nil or one of the reader's typed
// errors; it reports whether err is nil.
func requireTyped(t *testing.T, what string, err error) bool {
	t.Helper()
	var (
		ce *CorruptError
		ve *VersionError
		fe *FingerprintError
	)
	switch {
	case err == nil:
		return true
	case errors.As(err, &ce), errors.As(err, &ve), errors.As(err, &fe), errors.Is(err, ErrNotIndexFile):
		return false
	}
	t.Fatalf("%s: untyped error %T: %v", what, err, err)
	return false
}
