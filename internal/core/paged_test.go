package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"trussdiv/internal/gen"
)

// samePage reports whether two pages share one backing array.
func samePage[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestPagedLengths: makePaged, pagedOf, at, ref, set and flat at lengths
// around the page size — empty, one entry, one short of a page, exactly
// one page, one past it, and a non-multiple spanning several pages.
func TestPagedLengths(t *testing.T) {
	for _, n := range []int{0, 1, pageSize - 1, pageSize, pageSize + 1, 3*pageSize + 17} {
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i*7 + 1)
		}
		p := makePaged[int32](n)
		if p.n != n || len(p.pages) != (n+pageSize-1)/pageSize {
			t.Fatalf("n = %d: makePaged has len %d over %d pages", n, p.n, len(p.pages))
		}
		for v := range want {
			if p.at(int32(v)) != 0 {
				t.Fatalf("n = %d: fresh entry %d = %d, want 0", n, v, p.at(int32(v)))
			}
			p.set(int32(v), want[v])
		}
		for i, pg := range p.pages {
			if wantLen := min(pageSize, n-i*pageSize); len(pg) != wantLen {
				t.Fatalf("n = %d: page %d holds %d entries, want %d", n, i, len(pg), wantLen)
			}
		}
		if got := p.flat(); !slices.Equal(got, want) {
			t.Fatalf("n = %d: flat() = %v, want %v", n, got, want)
		}

		q := pagedOf(want)
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("n = %d: pagedOf differs from the same entries set one by one", n)
		}
		for i, pg := range q.pages {
			if &pg[0] != &want[i*pageSize] || cap(pg) != len(pg) {
				t.Fatalf("n = %d: pagedOf page %d is not a capped window of its input", n, i)
			}
		}
		for v := range want {
			if q.at(int32(v)) != want[v] || *q.ref(int32(v)) != want[v] {
				t.Fatalf("n = %d: pagedOf entry %d = %d, want %d", n, v, q.at(int32(v)), want[v])
			}
		}
		flat := q.flat()
		if !slices.Equal(flat, want) || (n > 0 && &flat[0] == &want[0]) {
			t.Fatalf("n = %d: pagedOf(x).flat() is not a fresh copy of x", n)
		}
	}
}

// TestPagedCopyOnWrite: cow copies exactly the pages holding a touched
// entry, the successor's writes never reach the original, and both keep
// answering their own entries — touching the first entry, the last
// (on a short last page), and several entries of one page.
func TestPagedCopyOnWrite(t *testing.T) {
	const n = 4*pageSize + 9
	cases := [][]int32{
		{0},
		{n - 1},
		{pageSize + 1, pageSize + 5, 2*pageSize - 1},
		{0, pageSize, 3 * pageSize, n - 1},
		nil,
	}
	orig := make([]int32, n)
	for i := range orig {
		orig[i] = int32(i)
	}
	built := makePaged[int32](n)
	for v, x := range orig {
		built.set(int32(v), x)
	}
	for _, touched := range cases {
		for _, old := range []paged[int32]{pagedOf(slices.Clone(orig)), built} {
			label := fmt.Sprintf("touched %v", touched)
			next := old.cow(touched)
			for _, v := range touched {
				next.set(v, -1-v)
			}
			for i := range old.pages {
				hit := slices.ContainsFunc(touched, func(v int32) bool { return int(v)/pageSize == i })
				if shared := samePage(next.pages[i], old.pages[i]); shared == hit {
					t.Fatalf("%s: page %d shared = %v with a touched entry = %v", label, i, shared, hit)
				}
			}
			if got := old.flat(); !slices.Equal(got, orig) {
				t.Fatalf("%s: cow wrote through to the original: %v", label, got)
			}
			for v := range orig {
				want := orig[v]
				if slices.Contains(touched, int32(v)) {
					want = -1 - int32(v)
				}
				if got := next.at(int32(v)); got != want {
					t.Fatalf("%s: successor entry %d = %d, want %d", label, v, got, want)
				}
			}
		}
	}
}

// TestPatchAllSharesUntouchedPages: after a PatchAll, every page of the
// TSD and GCT per-vertex arrays without an affected vertex is the old
// index's own page and every page with one is fresh, and the old indexes
// answer Score, Contexts and Flatten exactly as before the patch — also
// when the old indexes were read back from flat slabs, whose pages alias
// the slabs.
func TestPatchAllSharesUntouchedPages(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 12 * pageSize, Attach: 3, Cliques: 150, MinSize: 4, MaxSize: 8, Seed: 9,
	})
	ins, del := randomEdits(t, g, 2, 2, 10)
	newG, err := ApplyEdits(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	affected := AffectedVertices(g, newG, ins, del)
	hit := make([]bool, (g.N()+pageSize-1)/pageSize)
	for _, v := range affected {
		hit[v/pageSize] = true
	}
	if !slices.Contains(hit, false) || !slices.Contains(hit, true) {
		t.Fatalf("affected set %v leaves no page untouched or touches none", affected)
	}
	targets := BuildTargets{TSD: true, GCT: true}
	built := BuildAll(g, targets, 1)
	tsdFlat, gctFlat := built.TSD.Flatten(), built.GCT.Flatten()
	mvSlab := slices.Clone(tsdFlat.Mv)
	fromFlat := &BuildProducts{}
	if fromFlat.TSD, err = NewTSDIndexFromFlat(g, tsdFlat); err != nil {
		t.Fatal(err)
	}
	if fromFlat.GCT, err = NewGCTIndexFromFlat(g, gctFlat); err != nil {
		t.Fatal(err)
	}
	want := BuildAll(newG, targets, 1)

	for name, old := range map[string]*BuildProducts{"built": built, "flat": fromFlat} {
		answers := func() (scores []int, contexts [][][]int32) {
			for v := int32(0); int(v) < g.N(); v++ {
				for k := int32(2); k <= 6; k++ {
					scores = append(scores, old.TSD.Score(v, k), old.GCT.Score(v, k))
					contexts = append(contexts, old.TSD.Contexts(v, k), old.GCT.Contexts(v, k))
				}
			}
			return scores, contexts
		}
		scores, contexts := answers()
		tsdBefore, gctBefore := old.TSD.Flatten(), old.GCT.Flatten()

		p := PatchAll(newG, old, targets, affected, 2, nil)
		if !reflect.DeepEqual(p.TSD.Flatten(), want.TSD.Flatten()) || !reflect.DeepEqual(p.GCT.Flatten(), want.GCT.Flatten()) {
			t.Fatalf("%s: patched indexes diverge from BuildAll over the edited graph", name)
		}
		checkPages(t, name+" tsd edges", hit, old.TSD.edges, p.TSD.edges)
		checkPages(t, name+" tsd mv", hit, old.TSD.mv, p.TSD.mv)
		checkPages(t, name+" tsd vtCum", hit, old.TSD.vtCum, p.TSD.vtCum)
		checkPages(t, name+" gct verts", hit, old.GCT.verts, p.GCT.verts)

		if s, c := answers(); !slices.Equal(s, scores) || !reflect.DeepEqual(c, contexts) {
			t.Fatalf("%s: the old indexes answer differently after the patch", name)
		}
		if !reflect.DeepEqual(old.TSD.Flatten(), tsdBefore) || !reflect.DeepEqual(old.GCT.Flatten(), gctBefore) {
			t.Fatalf("%s: the old indexes flatten differently after the patch", name)
		}
	}
	if !slices.Equal(tsdFlat.Mv, mvSlab) {
		t.Fatal("the patch wrote into the flat slab the old index was read from")
	}
}

// checkPages fails unless next shares exactly the pages of old that hold
// no affected vertex (hit[i] false) and holds fresh pages for the others.
func checkPages[T any](t *testing.T, label string, hit []bool, old, next paged[T]) {
	t.Helper()
	if len(next.pages) != len(hit) || len(old.pages) != len(hit) {
		t.Fatalf("%s: %d and %d pages, want %d", label, len(old.pages), len(next.pages), len(hit))
	}
	for i, h := range hit {
		if shared := samePage(old.pages[i], next.pages[i]); shared == h {
			t.Fatalf("%s: page %d shared = %v, holds an affected vertex = %v", label, i, shared, h)
		}
	}
}
