// PFree: parameter-free structural diversity search — top-r without
// choosing a k.
//
// Every fixed-k query bakes in a guess: k=3 rewards vertices with many
// loose contexts, k=6 rewards a few dense ones, and no single threshold
// is right for every vertex. The pfree engine removes the guess with a
// generalized h-index over the all-k score vector: pfree(v) is the
// largest h with score(v, max(h,2)) >= h, so each vertex is judged at
// its own discriminating level.
//
// This example opens a synthetic community network, runs the k-less
// query (NewQuery with k=0 routes to pfree), and contrasts its top-10
// with the fixed-k answers at k=3..6: which vertices every threshold
// agrees on, and which only the parameter-free objective surfaces. It
// finishes with the point query — one vertex's pfree score and the
// level it was earned at.
//
// Run with: go run ./examples/pfree
package main

import (
	"context"
	"fmt"
	"log"

	"trussdiv"
)

func main() {
	ctx := context.Background()
	g := trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 800, Attach: 3, Cliques: 160, MinSize: 4, MaxSize: 9, Seed: 21,
	})
	db, err := trussdiv.Open(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n\n", g.N(), g.M())

	// Prepare pfree once (every measure's ranking table, whose row 0 is
	// the pfree ranking); afterwards every k-less top-r is an O(r) prefix
	// read. (Skipping this works too — the engine falls back to scoring
	// all-k vectors online, same answers.)
	if err := db.Prepare(ctx, "pfree"); err != nil {
		log.Fatal(err)
	}

	const r = 10
	// k=0 builds a parameter-free query; the DB routes it to pfree.
	pf, _, err := db.TopR(ctx, trussdiv.NewQuery(0, r))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parameter-free top-%d (engine=pfree, k chosen per vertex):\n", r)
	for rank, e := range pf.TopR {
		fmt.Printf("%3d. vertex %-6d pfree score %d\n", rank+1, e.V, e.Score)
	}
	fmt.Println()

	// The same question with a threshold: four different k, four
	// different rankings — each one a different guess about what
	// "diverse" means.
	ks := []int32{3, 4, 5, 6}
	fixed := map[int32]map[int32]bool{}
	for _, k := range ks {
		res, _, err := db.TopR(ctx, trussdiv.NewQuery(k, r))
		if err != nil {
			log.Fatal(err)
		}
		in := map[int32]bool{}
		for _, e := range res.TopR {
			in[e.V] = true
		}
		fixed[k] = in
		fmt.Printf("fixed k=%d top-%d: %v\n", k, r, vertices(res.TopR))
	}
	fmt.Println()

	// Where the parameter-free answer departs from every fixed guess.
	consensus, only := 0, []int32{}
	for _, e := range pf.TopR {
		everywhere, anywhere := true, false
		for _, k := range ks {
			if fixed[k][e.V] {
				anywhere = true
			} else {
				everywhere = false
			}
		}
		if everywhere {
			consensus++
		}
		if !anywhere {
			only = append(only, e.V)
		}
	}
	fmt.Printf("of the pfree top-%d: %d appear in every fixed-k top-%d, %d in none of them %v\n\n",
		r, consensus, r, len(only), only)

	// The point query: one vertex's parameter-free score and the
	// discriminating level it was earned at (k* = max(score, 2)).
	v := pf.TopR[0].V
	score, err := db.ScorePFree(ctx, v, trussdiv.MeasureTruss)
	if err != nil {
		log.Fatal(err)
	}
	contexts, err := db.ContextsPFree(ctx, v, trussdiv.MeasureTruss)
	if err != nil {
		log.Fatal(err)
	}
	level := int32(2)
	if score > 2 {
		level = int32(score)
	}
	fmt.Printf("vertex %d: pfree score %d — it keeps %d contexts at its own level k*=%d\n",
		v, score, len(contexts), level)
}

func vertices(entries []trussdiv.VertexScore) []int32 {
	out := make([]int32, len(entries))
	for i, e := range entries {
		out[i] = e.V
	}
	return out
}
