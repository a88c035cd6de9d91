package trussdiv_test

import (
	"context"
	"fmt"

	"trussdiv"
)

// Example reproduces the paper's running example: the query vertex of
// Figure 1 has structural diversity 3 at k = 4.
func Example() {
	g := trussdiv.PaperExampleGraph()
	scorer := trussdiv.NewScorer(g)
	fmt.Println(scorer.Score(trussdiv.PaperExampleV, 4))
	// Output: 3
}

// ExampleGCT shows the index-once, query-many workflow: the GCT index is
// built up front by Prepare and every query is answered from it.
func ExampleGCT() {
	g := trussdiv.PaperExampleGraph()
	db, err := trussdiv.Open(g)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	if err := db.Prepare(ctx, "gct"); err != nil {
		panic(err)
	}
	for _, k := range []int32{3, 4, 5} {
		res, _, err := db.TopR(ctx, trussdiv.NewQuery(k, 1, trussdiv.ViaEngine("gct")))
		if err != nil {
			panic(err)
		}
		fmt.Printf("k=%d: vertex %d, score %d\n", k, res.TopR[0].V, res.TopR[0].Score)
	}
	// Output:
	// k=3: vertex 0, score 2
	// k=4: vertex 0, score 3
	// k=5: vertex 0, score 0
}

// ExampleScorer_Contexts retrieves the social contexts themselves.
func ExampleScorer_Contexts() {
	g := trussdiv.PaperExampleGraph()
	scorer := trussdiv.NewScorer(g)
	for i, ctx := range scorer.Contexts(trussdiv.PaperExampleV, 4) {
		fmt.Printf("context %d has %d members\n", i+1, len(ctx))
	}
	// Output:
	// context 1 has 4 members
	// context 2 has 4 members
	// context 3 has 6 members
}

// ExampleBuilder builds a graph by hand: a hub inside two tetrahedra.
// The hub's ego-network contains one triangle per tetrahedron, so the hub
// sees two 3-truss social contexts.
func ExampleBuilder() {
	b := trussdiv.NewBuilder(0)
	for _, e := range [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4 {0,1,2,3}
		{0, 4}, {0, 5}, {0, 6}, {4, 5}, {4, 6}, {5, 6}, // K4 {0,4,5,6}
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	scorer := trussdiv.NewScorer(g)
	fmt.Println(scorer.Score(0, 3))
	// Output: 2
}

// ExampleTrussDecompose exposes the underlying decomposition.
func ExampleTrussDecompose() {
	g := trussdiv.PaperExampleGraph()
	tau := trussdiv.TrussDecompose(g)
	max := int32(0)
	for _, t := range tau {
		if t > max {
			max = t
		}
	}
	fmt.Println(max)
	// Output: 5
}

// ExampleOpen shows the DB facade: one Open, engines resolved by name or
// by cost routing, queries built with functional options.
func ExampleOpen() {
	g := trussdiv.PaperExampleGraph()
	db, err := trussdiv.Open(g)
	if err != nil {
		panic(err)
	}
	q := trussdiv.NewQuery(4, 1, trussdiv.WithContexts(), trussdiv.ViaEngine("gct"))
	res, stats, err := db.TopR(context.Background(), q)
	if err != nil {
		panic(err)
	}
	top := res.TopR[0]
	fmt.Printf("engine=%s vertex=%d score=%d contexts=%d\n",
		stats.Engine, top.V, top.Score, len(res.Contexts[top.V]))
	// Output: engine=gct vertex=0 score=3 contexts=3
}
