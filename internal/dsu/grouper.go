package dsu

import "math"

// Grouper lays out the classes of a partition of 0..n-1 as canonical
// groups: ordered by first (smallest) member, members ascending — the
// social-context order every engine answers in. The zero value is ready
// to use; its tables are reused (and grown only when needed) across
// calls, so only the returned groups are allocated. A Grouper is not safe for
// concurrent use.
type Grouper struct {
	roots []int32     // the table Roots hands out
	tab   []groupSlot // class label -> its group, valid where stamp matches
	stamp int32
}

type groupSlot struct {
	stamp, group, size int32
}

// Roots returns a roots table for n elements, every entry -1 (no class).
// It is owned by gr and valid until the next Roots call: fill in the
// members' labels and pass it to Groups.
func (gr *Grouper) Roots(n int) []int32 {
	if cap(gr.roots) < n {
		gr.roots = make([]int32, n)
	}
	gr.roots = gr.roots[:n]
	for i := range gr.roots {
		gr.roots[i] = -1
	}
	return gr.roots
}

// Groups returns the classes of the partition described by roots: element
// i belongs to the class labelled roots[i] (any label in 0..n-1, such as
// a union-find root), or to no group when roots[i] is -1. Each member i
// is written as ids[i], or as i itself when ids is nil. All groups share
// one flat array, each capped with a three-index slice so an append to
// one group cannot overwrite the next. Nil when no element belongs to a
// class.
func (gr *Grouper) Groups(roots, ids []int32) [][]int32 {
	n := len(roots)
	if cap(gr.tab) < n {
		gr.tab = make([]groupSlot, n)
		gr.stamp = 0
	}
	tab := gr.tab[:n]
	if gr.stamp == math.MaxInt32 {
		clear(gr.tab[:cap(gr.tab)])
		gr.stamp = 0
	}
	gr.stamp++
	stamp := gr.stamp
	// Pass 1 numbers the classes in order of first member and sizes them.
	groups, members := int32(0), 0
	for _, r := range roots {
		if r < 0 {
			continue
		}
		s := &tab[r]
		if s.stamp != stamp {
			*s = groupSlot{stamp: stamp, group: groups}
			groups++
		}
		s.size++
		members++
	}
	if groups == 0 {
		return nil
	}
	// Pass 2 meets the classes in the same order, so each group's window
	// is cut from the flat array when its first member arrives.
	flat := make([]int32, members)
	out := make([][]int32, groups)
	next := int32(0)
	for i, r := range roots {
		if r < 0 {
			continue
		}
		s := &tab[r]
		g := &out[s.group]
		if cap(*g) == 0 {
			*g = flat[next : next : next+s.size]
			next += s.size
		}
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		*g = append(*g, id)
	}
	return out
}
