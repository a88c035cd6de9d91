// Package dsu implements a disjoint-set union (union-find) structure with
// path halving and union by size, and the Grouper that lays out the
// classes of a partition as canonical groups.
//
// The union-find runs the one Kruskal maximum-spanning-forest pass per
// ego-network (paper §5.1), whose forest the TSD-index stores, the
// GCT-index compresses by supernode merging (paper §6.3), and the all-k
// context counts read; it also counts the components at a single
// threshold (Algorithm 2 and the baselines) and groups the members of
// each social context on recovery. The Grouper writes every
// engine's social contexts SC(v) (paper Def. 2), whether recovered online,
// from the TSD forest or from the GCT supernodes, and the Comp-Div and
// Core-Div contexts: groups ordered by first member, members ascending.
package dsu

// DSU is a disjoint-set forest over elements 0..n-1. The zero value is an
// empty structure; use New.
type DSU struct {
	parent []int32
	size   []int32
	sets   int
}

// New returns a DSU with n singleton sets.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), size: make([]int32, n), sets: n}
	d.Reset()
	return d
}

// Init resets d to n singleton sets, reusing (and growing only when
// needed) its storage — the allocation-free counterpart of New for
// scratch structures that are re-targeted at graphs of varying size.
func (d *DSU) Init(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
		d.size = make([]int32, n)
	}
	d.parent = d.parent[:n]
	d.size = d.size[:n]
	d.Reset()
}

// Reset returns every element to its own singleton set.
func (d *DSU) Reset() {
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	d.sets = len(d.parent)
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the representative of x's set, compressing the path.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened
// (false when they were already in the same set).
func (d *DSU) Union(x, y int32) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.size[rx] < d.size[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	d.size[rx] += d.size[ry]
	d.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (d *DSU) Same(x, y int32) bool { return d.Find(x) == d.Find(y) }

// SizeOf returns the number of elements in x's set.
func (d *DSU) SizeOf(x int32) int32 { return d.size[d.Find(x)] }
