// Command tsdserve serves truss-based structural diversity queries over
// HTTP: it loads a graph, builds the TSD/GCT/Hybrid indexes once, and
// answers any (k, r) query as JSON. Queries without an engine parameter
// are cost-routed to the cheapest engine; each request runs under its own
// context, bounded by -timeout.
//
// With -indexdir the server warm starts from a persistent index store:
// indexes prebuilt by cmd/tsdindex load from dir/indexes.tdx instead of
// being rebuilt, and a cold start persists what it builds so the next
// boot is warm. A stale or damaged index file is rebuilt around. Format
// v3 stores are memory-mapped by default, so N replicas of one graph
// share a single physical copy of the index arrays; -storemode decode
// forces the classic read-and-decode path.
//
// Usage:
//
//	tsdserve -dataset gowalla-sim -addr :8080
//	tsdserve -input graph.txt -addr 127.0.0.1:9000 -timeout 2s
//	tsdindex -dataset gowalla-sim -out idx/ && tsdserve -dataset gowalla-sim -indexdir idx/
//
// The served graph is live by default: POST /edges applies an atomic
// batch of edge insertions/deletions (incremental index repair, epoch
// bump, in-flight queries unaffected); -readonly disables it.
//
// The diversity measure is a query axis: measure=truss|component|core on
// /topr, /score, and /contexts (and a "measure" field per /batch query)
// selects the model, with GET /measures listing which engines serve
// which measure. An index store built with tsdindex -measures warm
// starts the component/core rankings too.
//
// k is optional on every query endpoint: a /topr request without k (or
// with k=0, including per /batch query) is parameter-free and routes to
// the pfree engine, which scores each vertex at its own discriminating
// level; /score and /contexts without k answer the parameter-free point
// query.
//
// The server shuts down gracefully: SIGINT/SIGTERM stops accepting
// connections and drains in-flight requests for up to -drain. -pprof
// additionally exposes Go's net/http/pprof endpoints under /debug/pprof/
// on the serving mux (off by default).
//
// Endpoints: /healthz, /stats, /metrics, /engines, /measures,
// /topr?k=&r=&engine=&measure=&contexts=&candidates=, POST /batch,
// POST /edges, /score?v=&k=&measure=, /contexts?v=&k=&measure=.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trussdiv"
	"trussdiv/internal/bench"
	"trussdiv/internal/server"
)

func main() {
	var (
		input     = flag.String("input", "", "edge-list file (SNAP text format)")
		dataset   = flag.String("dataset", "", "built-in synthetic dataset name")
		addr      = flag.String("addr", ":8080", "listen address")
		timeout   = flag.Duration("timeout", 0, "per-request search deadline (0 = none)")
		indexDir  = flag.String("indexdir", "", "persistent index store directory for warm starts (see cmd/tsdindex)")
		storeMode = flag.String("storemode", "mmap", "index store read mode: mmap (zero-copy views, replicas share pages) or decode")
		readOnly  = flag.Bool("readonly", false, "disable POST /edges live updates")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving mux")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	)
	flag.Parse()

	mode, err := parseStoreMode(*storeMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdserve:", err)
		os.Exit(1)
	}

	if err := run(options{
		input: *input, dataset: *dataset, addr: *addr, timeout: *timeout,
		indexDir: *indexDir, storeMode: mode, readOnly: *readOnly, drain: *drain,
		pprof: *pprofOn,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tsdserve:", err)
		os.Exit(1)
	}
}

type options struct {
	input, dataset, addr string
	timeout, drain       time.Duration
	indexDir             string
	storeMode            trussdiv.StoreMode
	readOnly             bool
	pprof                bool
}

func parseStoreMode(s string) (trussdiv.StoreMode, error) {
	switch s {
	case "mmap":
		return trussdiv.StoreMmap, nil
	case "decode":
		return trussdiv.StoreDecode, nil
	}
	return 0, fmt.Errorf("-storemode %q: want mmap or decode", s)
}

// serve runs handler on addr until SIGINT/SIGTERM, then drains in-flight
// requests for up to the drain deadline before returning.
func serve(addr string, handler http.Handler, drain time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err // bind failure or similar — never got to serving
	case <-ctx.Done():
	}
	stop() // second signal kills immediately instead of waiting for drain
	log.Printf("shutdown signal received; draining in-flight requests (up to %v)", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain deadline expired: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}

func run(o options) error {
	g, err := bench.LoadGraph(o.input, o.dataset)
	if err != nil {
		return err
	}
	log.Printf("graph loaded: %d vertices, %d edges; preparing indexes...", g.N(), g.M())
	start := time.Now()
	opts := []server.Option{server.WithTimeout(o.timeout)}
	if o.indexDir != "" {
		opts = append(opts, server.WithIndexDir(o.indexDir),
			server.WithStoreMode(o.storeMode))
	}
	if o.readOnly {
		opts = append(opts, server.WithReadOnly())
	}
	if o.pprof {
		opts = append(opts, server.WithPprof())
	}
	srv := server.New(g, opts...)
	if st := srv.DB().StoreStatus(); st.Dir != "" {
		switch {
		case st.SaveErr != nil:
			log.Printf("index store %s not writable (%v); every boot will be cold", st.Path, st.SaveErr)
		case st.LoadErr != nil:
			log.Printf("index store %s rejected (%v); rebuilt from the graph", st.Path, st.LoadErr)
		case st.Warm && srv.DB().IndexStats().LoadTime > 0:
			log.Printf("warm start from %s (format v%d, %s mode, sections: %v)",
				st.Path, st.FormatVersion, st.Mode, st.Sections)
		case st.Warm:
			log.Printf("index store written to %s (sections: %v)", st.Path, st.Sections)
		}
	}
	mode := "live updates on POST /edges"
	if o.readOnly {
		mode = "read-only"
	}
	log.Printf("indexes ready in %v; engines %v; epoch %d (%s); serving on %s",
		time.Since(start).Round(time.Millisecond), srv.DB().Engines(), srv.DB().Epoch(), mode, o.addr)
	return serve(o.addr, srv.Handler(), o.drain)
}
