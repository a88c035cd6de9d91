package core

import (
	"reflect"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// The zero-allocation contract of the scoring hot path: once a
// VertexScorer has seen its graph's largest ego-network, Score and
// ScoresAllK run without touching the heap, for every measure. The
// engine conformance suites pin that the scratch path answers exactly
// like the allocate path; this file pins that it also stops paying for
// it.

func allocTestGraph(t *testing.T) *graph.Graph {
	rng := testutil.Rand(t, 779)
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: 400, Attach: 3, Cliques: 80, MinSize: 4, MaxSize: 9, Seed: rng.Int63(),
	})
}

// k = 3 is a fixed threshold, k = 0 the parameter-free score.
func TestVertexScorerScoreAllocFree(t *testing.T) {
	g := allocTestGraph(t)
	n := int32(g.N())
	for _, m := range AllMeasures() {
		for _, k := range []int32{3, 0} {
			s := NewVertexScorer(g, m)
			// One full sweep grows every scratch slab to its high-water mark.
			for v := int32(0); v < n; v++ {
				s.Score(v, k)
			}
			var v int32
			if got := testing.AllocsPerRun(300, func() {
				s.Score(v%n, k)
				v++
			}); got != 0 {
				t.Errorf("%s: Score(v, %d) allocates %.1f/op in steady state, want 0", m, k, got)
			}
		}
	}
}

func TestVertexScorerScoresAllKAllocFree(t *testing.T) {
	g := allocTestGraph(t)
	n := int32(g.N())
	for _, m := range AllMeasures() {
		s := NewVertexScorer(g, m)
		for v := int32(0); v < n; v++ {
			s.ScoresAllK(v)
		}
		var v int32
		if got := testing.AllocsPerRun(300, func() {
			s.ScoresAllK(v % n)
			v++
		}); got != 0 {
			t.Errorf("%s: ScoresAllK allocates %.1f/op in steady state, want 0", m, got)
		}
	}
}

// TestVertexScorerMatchesOneShot sweeps the scratch path against the
// allocate path directly: a single VertexScorer reused across every
// vertex of every graph must return exactly what a freshly allocated
// scorer (whose scratch is never reused) returns per call — scores,
// all-k vectors, and contexts.
func TestVertexScorerMatchesOneShot(t *testing.T) {
	for _, tc := range conformanceGraphs(t) {
		for _, m := range AllMeasures() {
			reused := NewVertexScorer(tc.g, m)
			for v := int32(0); int(v) < tc.g.N(); v++ {
				for _, k := range []int32{2, 3, 4, 0} {
					if got, want := reused.Score(v, k), NewVertexScorer(tc.g, m).Score(v, k); got != want {
						t.Fatalf("%s/%s: Score(%d, %d) = %d via reused scratch, %d one-shot",
							tc.name, m, v, k, got, want)
					}
					got := reused.Contexts(v, k)
					want := NewVertexScorer(tc.g, m).Contexts(v, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s: Contexts(%d, %d) diverge:\n got %v\nwant %v",
							tc.name, m, v, k, got, want)
					}
				}
				gotAll := append([]int(nil), reused.ScoresAllK(v)...)
				wantAll := append([]int(nil), NewVertexScorer(tc.g, m).ScoresAllK(v)...)
				if !reflect.DeepEqual(gotAll, wantAll) {
					t.Fatalf("%s/%s: ScoresAllK(%d) diverges:\n got %v\nwant %v",
						tc.name, m, v, gotAll, wantAll)
				}
			}
		}
	}
}
