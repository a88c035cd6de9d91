// Command tsdsearch runs top-r truss-based structural diversity search
// over a graph through the trussdiv.DB facade: every engine from the
// paper is reachable by name, and omitting -algo lets the DB route the
// query to the cheapest engine.
//
// Usage:
//
//	tsdsearch -input graph.txt -algo gct -k 4 -r 10 -contexts
//	tsdsearch -dataset wiki-sim -algo tsd -k 3 -r 100
//	tsdsearch -dataset wiki-sim -k 3 -r 100                 # cost-routed
//	tsdsearch -dataset wiki-sim -measure component -k 3 -r 10  # alternative model
//
// Engines: online (Alg. 3), bound (Alg. 4), tsd (Alg. 5-6),
// gct (Alg. 7-8), hybrid, comp (Comp-Div), kcore (Core-Div),
// pfree (parameter-free).
//
// -measure selects the diversity definition (truss, the default;
// component; core): the query routes to the cheapest engine serving that
// measure, and -algo pins one engine inside the measure's row of the
// routing matrix.
//
// The pfree engine takes no threshold — it scores every vertex at its
// own discriminating level. -algo pfree leaves k unset automatically
// (pairing it with an explicit -k fails), and -k 0 without -algo routes
// the query to pfree:
//
//	tsdsearch -dataset wiki-sim -algo pfree -r 10
//	tsdsearch -dataset wiki-sim -k 0 -r 10   # same: k-less queries route to pfree
//
// With -server the query runs against a running tsdserve instance over
// its /topr endpoint instead of loading a graph locally:
//
//	tsdsearch -server http://localhost:8080 -k 4 -r 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"trussdiv"
	"trussdiv/internal/bench"
)

func main() {
	var (
		input    = flag.String("input", "", "edge-list file (SNAP text format)")
		dataset  = flag.String("dataset", "", "built-in synthetic dataset name")
		algo     = flag.String("algo", "", "engine name (empty = cost-routed); online|bound|tsd|gct|hybrid|comp|kcore|pfree")
		k        = flag.Int("k", 4, "trussness threshold (>= 2); 0 = parameter-free (the pfree engine)")
		r        = flag.Int("r", 10, "result count")
		contexts = flag.Bool("contexts", false, "print the social contexts of each answer")
		measure  = flag.String("measure", "", "diversity measure: truss (default) | component | core")
		timeout  = flag.Duration("timeout", 0, "abort the search after this long (0 = none)")
		serverTo = flag.String("server", "", "query a running tsdserve at this URL instead of loading a graph")
	)
	flag.Parse()
	// -algo pfree implies a parameter-free query: drop the -k default so
	// the user need not spell -k 0; an explicit -k is kept and rejected
	// downstream with the library's bad-query error.
	if *algo == "pfree" {
		kSet := false
		flag.Visit(func(f *flag.Flag) { kSet = kSet || f.Name == "k" })
		if !kSet {
			*k = 0
		}
	}
	var err error
	if *serverTo != "" {
		err = runRemote(*serverTo, *algo, *measure, *k, *r, *contexts, *timeout)
	} else {
		err = run(*input, *dataset, *algo, *measure, int32(*k), *r, *contexts, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdsearch:", err)
		os.Exit(1)
	}
}

// remoteResponse covers the fields of tsdserve's /topr response that
// runRemote prints.
type remoteResponse struct {
	Engine  string `json:"engine"`
	Measure string `json:"measure"`
	Epoch   uint64 `json:"epoch"`
	TookUS  int64  `json:"took_us"`
	Error   string `json:"error"`
	Results []struct {
		Vertex   int32     `json:"vertex"`
		Score    int       `json:"score"`
		Contexts [][]int32 `json:"contexts"`
	} `json:"results"`
}

// runRemote answers the query through a running tsdserve's /topr.
func runRemote(base, algo, measure string, k, r int, showContexts bool, timeout time.Duration) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	params := url.Values{}
	if k != 0 {
		params.Set("k", fmt.Sprint(k)) // absent k = parameter-free on the wire
	}
	params.Set("r", fmt.Sprint(r))
	if algo != "" {
		params.Set("engine", algo)
	}
	if measure != "" {
		params.Set("measure", measure)
	}
	if showContexts {
		params.Set("contexts", "true")
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(base, "/")+"/topr?"+params.Encode(), nil)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	var body remoteResponse
	if err := json.Unmarshal(blob, &body); err != nil {
		return fmt.Errorf("%s: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", base, resp.StatusCode, body.Error)
	}
	fmt.Printf("engine=%s measure=%s k=%d r=%d epoch=%d  total=%v (server %v)\n",
		body.Engine, body.Measure, k, r, body.Epoch,
		time.Since(start).Round(time.Microsecond),
		(time.Duration(body.TookUS) * time.Microsecond).Round(time.Microsecond))
	for rank, e := range body.Results {
		fmt.Printf("%3d. vertex %-8d score %d\n", rank+1, e.Vertex, e.Score)
		if showContexts {
			for i, members := range e.Contexts {
				fmt.Printf("      context %d (%d members): %v\n", i+1, len(members), members)
			}
		}
	}
	return nil
}

func run(input, dataset, algo, measure string, k int32, r int, showContexts bool, timeout time.Duration) error {
	g, err := bench.LoadGraph(input, dataset)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	db, err := trussdiv.Open(g)
	if err != nil {
		return err
	}
	opts := []trussdiv.QueryOption{}
	if showContexts {
		opts = append(opts, trussdiv.WithContexts())
	}
	if measure != "" {
		m, err := trussdiv.ParseMeasure(measure)
		if err != nil {
			return err
		}
		opts = append(opts, trussdiv.WithMeasure(m))
	}
	q := trussdiv.NewQuery(k, r, opts...)
	q.Engine = algo

	// Resolve through the snapshot so a pinned engine is checked against
	// the measure (tsd cannot answer -measure component).
	engine, err := db.Snapshot().ResolveEngine(q)
	if err != nil {
		return err
	}

	// Setup (index builds happen inside the first TopR) and query time
	// are reported together with the paper's search-space metric.
	start := time.Now()
	res, stats, err := engine.TopR(ctx, q)
	if err != nil {
		return err
	}
	took := time.Since(start)

	searched := "-"
	if stats != nil {
		searched = fmt.Sprintf("%d", stats.ScoreComputations)
	}
	fmt.Printf("engine=%s measure=%s k=%d r=%d  total=%v  search-space=%s\n",
		engine.Name(), trussdiv.EffectiveMeasure(q, engine), k, r,
		took.Round(time.Microsecond), searched)
	for rank, e := range res.TopR {
		fmt.Printf("%3d. vertex %-8d score %d\n", rank+1, e.V, e.Score)
		if showContexts {
			for i, ctxMembers := range res.Contexts[e.V] {
				fmt.Printf("      context %d (%d members): %v\n", i+1, len(ctxMembers), ctxMembers)
			}
		}
	}
	return nil
}
