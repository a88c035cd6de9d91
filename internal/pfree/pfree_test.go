package pfree

import "testing"

// The aggregation is a pure function of the all-k vector; pin its edge
// semantics directly. Vectors are indexed by k with entries 0 and 1
// unused, matching core.VertexScorer.ScoresAllK.
func TestScoreAndLevel(t *testing.T) {
	cases := []struct {
		name  string
		allK  []int
		score int
		level int32
	}{
		{"nil vector (no contexts)", nil, 0, 0},
		{"all zero", []int{0, 0, 0, 0}, 0, 0},
		{"one context at k=2 witnesses h=1", []int{0, 0, 1}, 1, 2},
		{"two contexts at k=2 witness h=2", []int{0, 0, 2}, 2, 2},
		{"many contexts only at k=2 still h=2", []int{0, 0, 9}, 2, 2},
		{"s(3)=3 witnesses h=3", []int{0, 0, 1, 3}, 3, 3},
		{"s(3)=2 does not reach h=3", []int{0, 0, 1, 2}, 1, 2},
		{"best level wins over lower ones", []int{0, 0, 5, 3, 4, 2}, 4, 4},
		{"non-monotone vector: later level qualifies alone", []int{0, 0, 1, 0, 4}, 4, 4},
		{"negative entries are ignored", []int{0, 0, -1, -3}, 0, 0},
	}
	for _, tc := range cases {
		if got := Score(tc.allK); got != tc.score {
			t.Errorf("%s: Score = %d, want %d", tc.name, got, tc.score)
		}
		if got := Level(tc.allK); got != tc.level {
			t.Errorf("%s: Level = %d, want %d", tc.name, got, tc.level)
		}
	}
}
