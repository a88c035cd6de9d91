// Indexserve: build the TSD and GCT indexes once, persist them to an
// index store, reopen warm, and answer a stream of (k, r) queries through
// the warm trussdiv.DB — the "index once, query many" workflow both
// indexes were designed for (paper §5-§6). Prints the size of the index
// file and the warm DB's store status, the per-query latency of TSD vs
// GCT (each spread over a worker pool via WithWorkers), where the DB's
// cost router sends the same queries, and finally answers the whole
// workload in one DB.Batch pass.
//
// Run with: go run ./examples/indexserve
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"trussdiv"
	"trussdiv/internal/gen"
)

func main() {
	ctx := context.Background()
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 10000, Attach: 4, Cliques: 1500, MinSize: 4, MaxSize: 12, Seed: 3,
	})
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	dir, err := os.MkdirTemp("", "trussdiv-index-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Build both indexes and persist them to the store.
	cold, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := cold.Prepare(ctx, "tsd", "gct"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TSD and GCT indexes built in %v\n", time.Since(start).Round(time.Millisecond))
	path, err := cold.SaveIndexes()
	if err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted %s (%d bytes)\n", info.Name(), info.Size())

	// Reopen — a fresh process would start here: both index engines are
	// ready from the store with no rebuild.
	start = time.Now()
	db, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		log.Fatal(err)
	}
	st := db.StoreStatus()
	if !st.Warm || st.LoadErr != nil {
		log.Fatalf("reopen was not warm: %+v", st)
	}
	fmt.Printf("warm open in %v: format v%d, %s mode, sections %v\n",
		time.Since(start).Round(time.Microsecond), st.FormatVersion, st.Mode, st.Sections)

	// Serve a mixed query workload: the same DB answers every (k, r),
	// each search spread over the machine's cores.
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("\nquery workload (one index build, many queries, %d workers):\n", workers)
	fmt.Printf("%4s %4s  %12s %12s  %-8s %s\n", "k", "r", "TSD", "GCT", "routed", "top-1 (score)")
	tsd, err := db.Engine("tsd")
	if err != nil {
		log.Fatal(err)
	}
	gct, err := db.Engine("gct")
	if err != nil {
		log.Fatal(err)
	}
	workload := []trussdiv.Query{
		trussdiv.NewQuery(3, 10, trussdiv.WithWorkers(workers)),
		trussdiv.NewQuery(3, 100, trussdiv.WithWorkers(workers)),
		trussdiv.NewQuery(4, 10, trussdiv.WithWorkers(workers)),
		trussdiv.NewQuery(4, 100, trussdiv.WithWorkers(workers)),
		trussdiv.NewQuery(5, 10, trussdiv.WithWorkers(workers)),
		trussdiv.NewQuery(6, 10, trussdiv.WithWorkers(workers)),
	}
	for _, q := range workload {
		t0 := time.Now()
		resT, _, err := tsd.TopR(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		tsdTime := time.Since(t0)
		t0 = time.Now()
		resG, _, err := gct.TopR(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		gctTime := time.Since(t0)
		if resT.TopR[0].Score != resG.TopR[0].Score {
			log.Fatalf("engines disagree at k=%d r=%d", q.K, q.R)
		}
		routed := db.Route(q).Name()
		fmt.Printf("%4d %4d  %12v %12v  %-8s vertex %d (%d)\n",
			q.K, q.R, tsdTime.Round(time.Microsecond), gctTime.Round(time.Microsecond),
			routed, resG.TopR[0].V, resG.TopR[0].Score)
	}

	// The same workload as one batch: the DB resolves every engine up
	// front (amortizing index builds over the batch) and fans the queries
	// out across a worker pool. Answers are byte-identical to the
	// one-at-a-time runs above.
	t0 := time.Now()
	batched, err := db.Batch(ctx, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDB.Batch answered all %d queries in %v\n",
		len(batched), time.Since(t0).Round(time.Microsecond))
	for i, q := range workload {
		top := batched[i].TopR[0]
		fmt.Printf("  k=%d r=%-3d -> vertex %d (score %d)\n", q.K, q.R, top.V, top.Score)
	}
}
