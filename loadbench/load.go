package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"trussdiv"
)

// Reads are closed loop: each client sends its next request when the last
// one returns. Service times are tens of microseconds, so a one-process
// open-loop generator on two cores would mostly measure its own timer
// slop. Writes are open loop: edge batches fall due on a fixed schedule
// whatever the service does, and each is timed from its due time, so a
// stall shows up in the batches queued behind it.

// client is one load-generating goroutine's reusable state.
type client struct {
	w    recorder
	hood hood
	kept []keptScan // adhoc-scan answers kept for verification
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// serve sends one request through h in-process — no sockets — and
// returns the status and the handler's latency.
func serve(h http.Handler, w *recorder, method string, u *url.URL, body []byte) (int, time.Duration) {
	req := &http.Request{Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Host: "loadbench", Body: http.NoBody}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
	start := time.Now()
	h.ServeHTTP(w, req)
	took := time.Since(start)
	w.WriteHeader(http.StatusOK)
	return w.status, took
}

func ok2xx(status int) bool { return status/100 == 2 }

var edgesURL = &url.URL{Path: "/edges"}

// loadSpec describes one load phase.
type loadSpec struct {
	readers int
	// window > 0 ends the phase in time: no read starts and no batch falls
	// due after it. reads > 0 caps the reads; the traced passes replay an
	// earlier phase by giving its read count and batch count, no window.
	window time.Duration
	reads  int64
	// batches is the number of write batches available; one falls due
	// every writeEvery from the start of the phase.
	batches    int
	writeEvery time.Duration
	// read serves request i and returns its latency; write applies batch
	// b. Both report whether the operation succeeded.
	read  func(c *client, i int64) (time.Duration, bool)
	write func(c *client, b int) bool
}

// sample is one completed operation: when it completed, relative to the
// start of the phase, and its latency.
type sample struct{ at, lat time.Duration }

// loadResult is what one load phase observed.
type loadResult struct {
	reads     []sample // successful reads
	readFails int
	writes    []sample        // applied batches; latency from the due time
	lags      []time.Duration // how late the writer started each batch
	applied   []bool          // per issued batch: did it apply
	clients   []*client
}

func lats(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// issued is the number of reads the phase attempted.
func (r *loadResult) issued() int64 { return int64(len(r.reads) + r.readFails) }

// runLoad runs spec's readers and its writer to completion; it starts at
// most readers+1 goroutines and waits for all of them.
func runLoad(spec loadSpec) *loadResult {
	res := &loadResult{}
	start := time.Now()
	deadline := start.Add(spec.window)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for range spec.readers {
		c := &client{}
		res.clients = append(res.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			fails := 0
			for {
				if spec.window > 0 && !time.Now().Before(deadline) {
					break
				}
				i := next.Add(1) - 1
				if spec.reads > 0 && i >= spec.reads {
					break
				}
				if lat, ok := spec.read(c, i); ok {
					mine = append(mine, sample{time.Since(start), lat})
				} else {
					fails++
				}
			}
			mu.Lock()
			res.reads = append(res.reads, mine...)
			res.readFails += fails
			mu.Unlock()
		}()
	}
	if spec.batches > 0 {
		c := &client{}
		res.clients = append(res.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range spec.batches {
				due := start.Add(time.Duration(b) * spec.writeEvery)
				if spec.window > 0 && !due.Before(deadline) {
					break
				}
				time.Sleep(time.Until(due))
				began := time.Now()
				ok := spec.write(c, b)
				done := time.Now()
				res.applied = append(res.applied, ok)
				res.lags = append(res.lags, began.Sub(due))
				if ok {
					res.writes = append(res.writes, sample{done.Sub(start), done.Sub(due)})
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// httpRead serves the read sequence through the handler; with a tracer
// each request is recorded as one http.<kind> span.
func httpRead(h http.Handler, in *readSet, tr *tracer) func(*client, int64) (time.Duration, bool) {
	return func(c *client, i int64) (time.Duration, bool) {
		k := in.key(i)
		if tr == nil {
			status, took := serve(h, &c.w, k.method(), k.url, k.body)
			return took, ok2xx(status)
		}
		sp := tr.begin(i+1, 0, "http."+kindNames[k.kind])
		status, _ := serve(h, &c.w, k.method(), k.url, k.body)
		return tr.end(sp), ok2xx(status)
	}
}

// httpWrite posts edit batch b to /edges.
func httpWrite(h http.Handler, bodies [][]byte, tr *tracer, after func(b int)) func(*client, int) bool {
	return func(c *client, b int) bool {
		var sp openSpan
		if tr != nil {
			sp = tr.begin(writeReq(b), 0, "http.edges")
		}
		status, _ := serve(h, &c.w, "POST", edgesURL, bodies[b])
		if tr != nil {
			tr.end(sp)
		}
		if after != nil {
			after(b)
		}
		return ok2xx(status)
	}
}

// writeReq is the span request id of write batch b, clear of read ids.
func writeReq(b int) int64 { return 1<<40 + int64(b) }

// keptScan is one scan answer kept for verification.
type keptScan struct {
	i   int64
	res *trussdiv.Result
}

// scanEvery: one scan in scanEvery is kept and replayed against an
// uncached online DB after the run.
const scanEvery = 200

// scanRead runs scan i through the facade. The candidate set is built
// before the clock starts.
func scanRead(db *trussdiv.DB, g *trussdiv.Graph, specs []scanSpec, limit int) func(*client, int64) (time.Duration, bool) {
	return func(c *client, i int64) (time.Duration, bool) {
		sp := &specs[i%int64(len(specs))]
		q := sp.q
		q.Candidates = c.hood.twoHop(g, sp.center, limit)
		start := time.Now()
		res, _, err := db.TopR(ctxBG, q)
		took := time.Since(start)
		if err == nil && i%scanEvery == 0 {
			c.kept = append(c.kept, keptScan{i, res})
		}
		return took, err == nil
	}
}
