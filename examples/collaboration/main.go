// Collaboration: the DBLP case study (paper §7.3) on a synthetic
// co-authorship network.
//
// Finds the most structurally diverse author under three diversity models
// — all reachable as engines of one trussdiv.DB — and shows why only the
// truss-based model decomposes a bridged, hub-centered ego-network into
// meaningful research groups (paper Figs. 16-17, Table 5).
//
// Run with: go run ./examples/collaboration
package main

import (
	"context"
	"fmt"
	"log"

	"trussdiv"
	"trussdiv/internal/ego"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

func main() {
	const k = 5
	ctx := context.Background()
	g := gen.Collaboration(gen.DefaultCollabConfig())
	fmt.Printf("co-authorship network: %d authors, %d strong ties\n\n", g.N(), g.M())

	db, err := trussdiv.Open(g)
	if err != nil {
		log.Fatal(err)
	}

	// Truss-based winner; the DB routes to the cheapest exact engine.
	q := trussdiv.NewQuery(k, 1, trussdiv.WithContexts())
	res, stats, err := db.TopR(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	winner := res.TopR[0]
	fmt.Printf("Truss-Div top-1 (engine %q): author %d with %d research communities (k=%d)\n",
		stats.Engine, winner.V, winner.Score, k)
	for i, members := range res.Contexts[winner.V] {
		fmt.Printf("  community %d: %d collaborators %v\n", i+1, len(members), members)
	}

	// The same ego-network under the competing models, scored by the
	// same DB.
	net := ego.ExtractOne(g, winner.V)
	_, comps := net.G.ConnectedComponents()
	fmt.Printf("\nego-network of author %d: %d collaborators, %d ties, %d connected component(s)\n",
		winner.V, len(net.Verts), net.G.M(), comps)
	compScore, err := db.ScoreMeasure(ctx, winner.V, k, trussdiv.MeasureComponent)
	if err != nil {
		log.Fatal(err)
	}
	coreScore, err := db.ScoreMeasure(ctx, winner.V, k, trussdiv.MeasureCore)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Comp-Div sees %d context(s)  (weak ties glue everything together)\n", compScore)
	fmt.Printf("  Core-Div sees %d context(s)  (bridged blocks stay one connected 5-core)\n", coreScore)
	fmt.Printf("  Truss-Div sees %d contexts  (bridges have no triangles, so 5-trusses split)\n\n",
		winner.Score)

	// Whom would the other models have crowned?
	for _, name := range []string{"comp", "kcore"} {
		engine, err := db.Engine(name)
		if err != nil {
			log.Fatal(err)
		}
		top, _, err := engine.TopR(ctx, trussdiv.NewQuery(k, 1))
		if err != nil {
			log.Fatal(err)
		}
		e := top.TopR[0]
		nv, mv := egoSize(g, e.V)
		fmt.Printf("%s top-1: author %d, %d contexts, ego |V|=%d |E|=%d density %.2f\n",
			name, e.V, e.Score, nv, mv, float64(mv)/float64(nv))
	}
	nv, mv := egoSize(g, winner.V)
	fmt.Printf("Truss-Div top-1: author %d, %d contexts, ego |V|=%d |E|=%d density %.2f (densest)\n",
		winner.V, winner.Score, nv, mv, float64(mv)/float64(nv))
}

func egoSize(g *graph.Graph, v int32) (int, int) {
	net := ego.ExtractOne(g, v)
	return len(net.Verts), net.G.M()
}
