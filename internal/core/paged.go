package core

import "slices"

// paged is the storage of the indexes' per-vertex arrays: n entries cut
// into fixed pages of pageSize (the last one shorter), reached through a
// page table. A page is never written once its index is published, so a
// repaired index can share every page an edit batch leaves alone with the
// index it repairs (cow), and an index read from flat slabs can alias the
// slabs page by page (pagedOf). PatchAll then copies the page table and
// the pages holding an affected vertex instead of all n entries.
type paged[T any] struct {
	pages [][]T
	n     int
}

// pageShift fixes the page size, 2^6 entries. On 25k vertices and 8+8
// edit batches (tens of affected vertices), smaller pages copy less per
// batch but grow the page tables that every index carries and every
// patch copies: 2^4 allocated 3% less per Apply than 2^6 but needs four
// times the tables (0.14 MiB across TSD and GCT), and 2^8 allocated 10%
// more.
const (
	pageShift = 6
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// makePaged returns n zero entries, its pages cut out of one array. One
// array carries no per-page size-class slack (a page of 2^6 gctVertex
// headers would round up by 1/16), and cow gives each replaced page its
// own allocation; the array is freed once no index shares any of its
// pages, so a long edit stream holds at most one extra copy of the
// entries.
func makePaged[T any](n int) paged[T] { return pagedOf(make([]T, n)) }

// pagedOf returns the entries of flat, its pages cut out of flat without
// copying; flat must not change through any other reference while the
// result is in use.
func pagedOf[T any](flat []T) paged[T] {
	n := len(flat)
	p := paged[T]{pages: make([][]T, (n+pageMask)>>pageShift), n: n}
	for i := range p.pages {
		lo := i << pageShift
		hi := min(lo+pageSize, n)
		p.pages[i] = flat[lo:hi:hi]
	}
	return p
}

// at returns entry v.
func (p *paged[T]) at(v int32) T { return p.pages[v>>pageShift][v&pageMask] }

// ref returns a pointer to entry v, for reading large entries in place.
func (p *paged[T]) ref(v int32) *T { return &p.pages[v>>pageShift][v&pageMask] }

// set writes entry v. Only a page no published index shares may be
// written: a fresh one from makePaged, or one cow copied.
func (p *paged[T]) set(v int32, x T) { p.pages[v>>pageShift][v&pageMask] = x }

// cow returns a copy-on-write successor of p for writing the entries in
// touched (sorted ascending): a new page table whose pages holding a
// touched entry are fresh copies and whose other pages are p's own. p
// itself is left as it was.
func (p *paged[T]) cow(touched []int32) paged[T] {
	out := paged[T]{pages: make([][]T, len(p.pages)), n: p.n}
	copy(out.pages, p.pages)
	last := -1
	for _, v := range touched {
		if i := int(v >> pageShift); i != last {
			out.pages[i] = slices.Clone(p.pages[i])
			last = i
		}
	}
	return out
}

// flat returns the entries concatenated into one new array.
func (p *paged[T]) flat() []T {
	out := make([]T, 0, p.n)
	for _, pg := range p.pages {
		out = append(out, pg...)
	}
	return out
}
