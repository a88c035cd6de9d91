package trussdiv_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"trussdiv"
)

// TestEstimatesGolden pins every engine's cost estimate — the routing
// inputs — for a fixed query set in the four readiness states an index
// can be in: cold (nothing built, no store), warm decode and warm mmap (a
// complete store on disk, nothing loaded yet), and in memory (every engine
// prepared). The values are compared byte-for-byte with
// testdata/estimates.golden, so a refactor of how readiness is tracked
// cannot silently move a routing decision.
func TestEstimatesGolden(t *testing.T) {
	g := overlayGraph(t)
	all := []string{"bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"}

	dir := t.TempDir()
	openPrepared(t, g, []trussdiv.Option{trussdiv.WithIndexDir(dir)}, all...)
	open := func(opts ...trussdiv.Option) *trussdiv.DB {
		db, err := trussdiv.Open(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	states := []struct {
		name string
		db   *trussdiv.DB
	}{
		{"cold", open()},
		{"decode", open(trussdiv.WithIndexDir(dir), trussdiv.WithStoreMode(trussdiv.StoreDecode))},
		{"mmap", open(trussdiv.WithIndexDir(dir))},
		{"memory", openPrepared(t, g, nil, all...)},
	}
	cands := make([]int32, 50)
	for i := range cands {
		cands[i] = int32(2 * i)
	}
	queries := []struct {
		name string
		q    trussdiv.Query
	}{
		{"k4r10", trussdiv.NewQuery(4, 10)},
		{"k4r10ctx", trussdiv.NewQuery(4, 10, trussdiv.WithContexts())},
		{"k4r200ctx", trussdiv.NewQuery(4, 200, trussdiv.WithContexts())},
		{"k4r10cand", trussdiv.NewQuery(4, 10, trussdiv.WithCandidates(cands...))},
		{"k4r10comp", trussdiv.NewQuery(4, 10, trussdiv.WithMeasure(trussdiv.MeasureComponent))},
		{"k4r10core", trussdiv.NewQuery(4, 10, trussdiv.WithMeasure(trussdiv.MeasureCore), trussdiv.WithContexts())},
		{"k0r10", trussdiv.NewQuery(0, 10)},
		{"k0r10comp", trussdiv.NewQuery(0, 10, trussdiv.WithMeasure(trussdiv.MeasureComponent), trussdiv.WithContexts())},
		{"k0r10core", trussdiv.NewQuery(0, 10, trussdiv.WithMeasure(trussdiv.MeasureCore))},
	}

	var b strings.Builder
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, st := range states {
		if st.name == "mmap" && st.db.StoreStatus().Mode != trussdiv.StoreMmap {
			t.Skip("index store cannot be memory-mapped on this platform")
		}
		for _, name := range st.db.Engines() {
			e, err := st.db.Engine(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				est := e.Cost(q.q)
				fmt.Fprintf(&b, "%s %s %s build=%s query=%s\n", st.name, name, q.name, f(est.Build), f(est.Query))
			}
		}
	}
	// Pricing must not have loaded or built anything.
	for _, st := range states[:3] {
		if is := st.db.IndexStats(); is.TauReady || is.TSDReady || is.GCTReady || len(is.PFreeRankings) > 0 {
			t.Fatalf("%s: Cost readied an index: %+v", st.name, is)
		}
	}

	path := filepath.Join("testdata", "estimates.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; got:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
