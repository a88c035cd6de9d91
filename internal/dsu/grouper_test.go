package dsu

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// naiveGroups is the reference layout: classes keyed by label, ordered
// by first member, each member mapped through ids.
func naiveGroups(roots, ids []int32) [][]int32 {
	var out [][]int32
	groupOf := map[int32]int{}
	for i, r := range roots {
		if r < 0 {
			continue
		}
		gi, ok := groupOf[r]
		if !ok {
			gi = len(out)
			groupOf[r] = gi
			out = append(out, nil)
		}
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		out[gi] = append(out[gi], id)
	}
	return out
}

func TestGrouperCanonicalOrderAndIDs(t *testing.T) {
	// Classes {1,4}, {2,3,6} labelled by a member that is not the first,
	// and {5} labelled by an element outside the class; 0 is no member.
	roots := []int32{-1, 4, 3, 3, 4, 0, 3}
	var gr Grouper
	if got, want := gr.Groups(roots, nil), [][]int32{{1, 4}, {2, 3, 6}, {5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups(nil ids) = %v, want %v", got, want)
	}
	ids := []int32{100, 110, 120, 130, 140, 150, 160}
	if got, want := gr.Groups(roots, ids), [][]int32{{110, 140}, {120, 130, 160}, {150}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups(ids) = %v, want %v", got, want)
	}
}

func TestGrouperNilWhenNothingQualifies(t *testing.T) {
	var gr Grouper
	for _, roots := range [][]int32{nil, {}, {-1}, {-1, -1, -1}} {
		if got := gr.Groups(roots, nil); got != nil {
			t.Fatalf("Groups(%v) = %#v, want nil", roots, got)
		}
	}
}

// TestGrouperFlatBacking pins the layout: one flat array behind every
// group, each group capped at its own length, so appending through one
// group can never overwrite the first member of the next.
func TestGrouperFlatBacking(t *testing.T) {
	var gr Grouper
	out := gr.Groups([]int32{0, 0, 2, 2, 4}, []int32{10, 11, 12, 13, 14})
	if len(out) != 3 {
		t.Fatalf("got %d groups, want 3", len(out))
	}
	for i, grp := range out {
		if cap(grp) != len(grp) {
			t.Fatalf("group %d: cap %d, want its length %d", i, cap(grp), len(grp))
		}
	}
	first := out[1][0]
	_ = append(out[0], -1) //nolint:staticcheck // probing capacity on purpose
	if out[1][0] != first {
		t.Fatal("append to one group clobbered its sibling: groups share spare capacity")
	}
}

// TestGrouperReuse drives one Grouper across random partitions whose
// size grows and shrinks, against the map-based reference: stale roots
// or slots from earlier, larger calls must never leak into a later
// layout.
func TestGrouperReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var gr Grouper
	for _, n := range []int{0, 3, 40, 7, 64, 1, 64, 12, 90, 5} {
		for rep := 0; rep < 20; rep++ {
			d := New(n)
			for i := 0; i < n; i++ {
				d.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			roots := gr.Roots(n)
			ids := make([]int32, n)
			for i := range roots {
				if rng.Intn(4) > 0 {
					roots[i] = d.Find(int32(i))
				}
				ids[i] = int32(1000 + 3*i)
			}
			if rep%2 == 1 {
				ids = nil
			}
			if got, want := gr.Groups(roots, ids), naiveGroups(roots, ids); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d rep=%d: Groups = %v, want %v", n, rep, got, want)
			}
		}
	}
}

// TestGrouperStampWraparound steps the stamp over its maximum: the
// table must be cleared, not misread as already numbered. The first call
// leaves slots 1 and 3 stamped 1, the value the stamp restarts from, and
// the call at the maximum stamp does not touch them.
func TestGrouperStampWraparound(t *testing.T) {
	var gr Grouper
	roots := []int32{1, 1, -1, 3, 3}
	want := [][]int32{{0, 1}, {3, 4}}
	gr.Groups(roots, nil)
	gr.stamp = math.MaxInt32 - 1
	if got := gr.Groups([]int32{0, 0, 0, -1, -1}, nil); !reflect.DeepEqual(got, [][]int32{{0, 1, 2}}) {
		t.Fatalf("at the maximum stamp: %v, want [[0 1 2]]", got)
	}
	if got := gr.Groups(roots, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("after wrapping to stamp %d: %v, want %v", gr.stamp, got, want)
	}
	if gr.stamp != 1 {
		t.Fatalf("stamp = %d after wrapping, want 1", gr.stamp)
	}
}
