package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

// referenceRankings builds measure m's ranking table over g the slow
// way — every vertex scored at every k through score, until a k nobody
// scores at, and row 0 from brutePFreeRanking — in BuildAll's shape: zero
// scores omitted, canonical order, empty lists nil, minimum length 3.
func referenceRankings(g *graph.Graph, m Measure, score func(v, k int32) int) [][]VertexScore {
	perK := make([][]VertexScore, 3)
	for _, e := range brutePFreeRanking(g, m) {
		if e.Score > 0 {
			perK[0] = append(perK[0], e)
		}
	}
	for k := int32(2); ; k++ {
		var list []VertexScore
		for v := int32(0); int(v) < g.N(); v++ {
			if s := score(v, k); s > 0 {
				list = append(list, VertexScore{V: v, Score: s})
			}
		}
		if len(list) == 0 {
			return perK
		}
		sortAnswer(list)
		if int(k) < len(perK) {
			perK[k] = list
		} else {
			perK = append(perK, list)
		}
	}
}

// TestBuildAllMatchesDedicatedBuilders pins the single-pass driver's
// contract: every product of one all-target BuildAll pass matches an
// independent reference, across worker counts. The GCT index deep-equals
// the paper's own GCT construction; the TSD index deep-equals the serial
// one-target pass behind BuildTSDIndex, and its scores equal the online
// scorer's (BuildTSDIndex is itself a BuildAll pass). The
// truss rankings in particular must match the scores a GCT index reads
// via Lemma 3 (the hybrid engine's original derivation) even though
// BuildAll reads the component counts straight off the shared
// decomposition; the other measures' tables must match their naive
// baseline models.
func TestBuildAllMatchesDedicatedBuilders(t *testing.T) {
	rng := testutil.Rand(t, 777)
	graphs := []conformanceGraph{
		{"fig1", gen.Fig1Graph()},
		{"overlay", gen.CommunityOverlay(gen.OverlayConfig{
			N: 200, Attach: 3, Cliques: 50, MinSize: 4, MaxSize: 8, Seed: rng.Int63(),
		})},
		{"ba", gen.BarabasiAlbert(150, 4, rng.Int63())},
		{"er", gen.ErdosRenyiGNM(120, 600, rng.Int63())},
		{"empty", gen.ErdosRenyiGNM(30, 0, 1)},
	}
	targets := BuildTargets{
		TSD:      true,
		GCT:      true,
		Measures: AllMeasures(),
	}
	for _, tc := range graphs {
		g := tc.g
		wantTSD := BuildTSDIndex(g)
		online := onlineTrussScores(g)
		wantGCT := BuildGCTIndex(g)
		wantHybrid := referenceRankings(g, MeasureTruss, wantGCT.Score)
		wantComp := referenceRankings(g, MeasureComponent, baselineModel(g, MeasureComponent).Score)
		wantCore := referenceRankings(g, MeasureCore, baselineModel(g, MeasureCore).Score)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			p := BuildAll(g, targets, workers)
			if !reflect.DeepEqual(p.TSD, wantTSD) {
				t.Fatalf("%s/w=%d: BuildAll TSD index diverges from the serial pass", tc.name, workers)
			}
			checkTSDScores(t, fmt.Sprintf("%s/w=%d: BuildAll", tc.name, workers), p.TSD, online)
			if !reflect.DeepEqual(p.GCT, wantGCT) {
				t.Fatalf("%s/w=%d: BuildAll GCT index diverges from BuildGCTIndex", tc.name, workers)
			}
			if !reflect.DeepEqual(wide(p.MeasureRanks[MeasureTruss]), wantHybrid) {
				t.Fatalf("%s/w=%d: BuildAll truss rankings diverge from the GCT index scores\n got %v\nwant %v",
					tc.name, workers, wide(p.MeasureRanks[MeasureTruss]), wantHybrid)
			}
			if !reflect.DeepEqual(wide(p.MeasureRanks[MeasureComponent]), wantComp) {
				t.Fatalf("%s/w=%d: BuildAll component rankings diverge from the baseline model",
					tc.name, workers)
			}
			if !reflect.DeepEqual(wide(p.MeasureRanks[MeasureCore]), wantCore) {
				t.Fatalf("%s/w=%d: BuildAll core rankings diverge from the baseline model",
					tc.name, workers)
			}
		}
	}

	// Partial target sets leave the unrequested products zero.
	g := gen.Fig1Graph()
	p := BuildAll(g, BuildTargets{Measures: []Measure{MeasureTruss}}, 0)
	if p.TSD != nil || p.GCT != nil || len(p.MeasureRanks) != 1 {
		t.Fatal("unrequested products were built")
	}
	if !reflect.DeepEqual(wide(p.MeasureRanks[MeasureTruss]), referenceRankings(g, MeasureTruss, BuildGCTIndex(g).Score)) {
		t.Fatal("truss-only BuildAll diverges from the GCT index scores")
	}
}
