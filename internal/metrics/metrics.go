// Package metrics is the lightweight serving-telemetry layer of the HTTP
// server: per-route request counters and latency histograms, cheap
// enough to sit on every request path, exposed as JSON (GET /metrics)
// rather than a wire format that would pull in a dependency. Buckets are
// fixed log-spaced microsecond bounds starting at 1 µs, so prepared
// answers that take tens of microseconds still spread over several
// cells.
package metrics

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// bucketBoundsUS are the histogram upper bounds, in microseconds. The
// final implicit bucket is +Inf. Log-spaced 1µs..5s: prepared lookups land
// in the first buckets, online scans in the middle, and anything in the
// tail is a timeout candidate.
var bucketBoundsUS = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
	5000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 5_000_000}

// endpoint accumulates one route's counters. Guarded by the Registry
// mutex — the critical section is a few integer adds, so a single mutex
// beats per-endpoint atomics in complexity and is nowhere near contended
// at the request rates one process serves.
type endpoint struct {
	count   uint64
	errors  uint64 // responses with status >= 500 (handler or upstream failures)
	clients uint64 // responses with status 4xx (caller errors, kept out of errors)
	totalNS int64
	maxNS   int64
	buckets []uint64 // len(bucketBoundsUS)+1, last = overflow
}

// Registry collects request metrics for one process.
type Registry struct {
	mu        sync.Mutex
	endpoints map[string]*endpoint
	started   time.Time
	gauges    map[string]func() map[string]uint64
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{endpoints: make(map[string]*endpoint), started: time.Now()}
}

// Observe records one request against route: its response status and wall
// duration.
func (r *Registry) Observe(route string, status int, d time.Duration) {
	if r == nil {
		return
	}
	us := d.Microseconds()
	slot := sort.Search(len(bucketBoundsUS), func(i int) bool { return us <= bucketBoundsUS[i] })
	r.mu.Lock()
	ep := r.endpoints[route]
	if ep == nil {
		ep = &endpoint{buckets: make([]uint64, len(bucketBoundsUS)+1)}
		r.endpoints[route] = ep
	}
	ep.count++
	switch {
	case status >= 500:
		ep.errors++
	case status >= 400:
		ep.clients++
	}
	ep.totalNS += d.Nanoseconds()
	ep.maxNS = max(ep.maxNS, d.Nanoseconds())
	ep.buckets[slot]++
	r.mu.Unlock()
}

// Bucket is one histogram cell: requests that took at most LEUS
// microseconds (and more than the previous bound). LEUS 0 marks the
// overflow bucket. Empty cells are omitted from reports.
type Bucket struct {
	LEUS  int64  `json:"le_us"`
	Count uint64 `json:"count"`
}

// EndpointStats is one route's JSON report.
type EndpointStats struct {
	Route        string   `json:"route"`
	Count        uint64   `json:"count"`
	Errors       uint64   `json:"errors,omitempty"`
	ClientErrors uint64   `json:"client_errors,omitempty"`
	MeanUS       int64    `json:"mean_us"`
	MaxUS        int64    `json:"max_us"`
	Latency      []Bucket `json:"latency"`
}

// Report is the GET /metrics body.
type Report struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      uint64          `json:"requests"`
	Endpoints     []EndpointStats `json:"endpoints"`
	// Gauges carries point-in-time counter groups registered with Gauge
	// (e.g. result-cache hit/miss/size), sampled at Snapshot time.
	Gauges map[string]map[string]uint64 `json:"gauges,omitempty"`
}

// Gauge registers a named group of point-in-time counters that every
// Snapshot samples — for state that is not a request observation, like
// cache occupancy. The callback must be safe for concurrent use;
// re-registering a name replaces the callback.
func (r *Registry) Gauge(name string, sample func() map[string]uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]func() map[string]uint64)
	}
	r.gauges[name] = sample
	r.mu.Unlock()
}

// Snapshot returns a consistent copy of every counter, routes sorted.
// The gauges are sampled after the registry lock is released, so a slow
// or re-entrant gauge callback never holds up Observe.
func (r *Registry) Snapshot() Report {
	r.mu.Lock()
	gauges := maps.Clone(r.gauges)
	rep := Report{UptimeSeconds: time.Since(r.started).Seconds()}
	for _, route := range slices.Sorted(maps.Keys(r.endpoints)) {
		ep := r.endpoints[route]
		st := EndpointStats{
			Route:        route,
			Count:        ep.count,
			Errors:       ep.errors,
			ClientErrors: ep.clients,
			MaxUS:        ep.maxNS / 1e3,
		}
		if ep.count > 0 {
			st.MeanUS = ep.totalNS / int64(ep.count) / 1e3
		}
		for i, c := range ep.buckets {
			if c == 0 {
				continue
			}
			le := int64(0) // overflow bucket
			if i < len(bucketBoundsUS) {
				le = bucketBoundsUS[i]
			}
			st.Latency = append(st.Latency, Bucket{LEUS: le, Count: c})
		}
		rep.Requests += ep.count
		rep.Endpoints = append(rep.Endpoints, st)
	}
	r.mu.Unlock()
	if gauges != nil {
		rep.Gauges = make(map[string]map[string]uint64, len(gauges))
		for name, fn := range gauges {
			rep.Gauges[name] = fn()
		}
	}
	return rep
}

// Totals reports per-route request counts — the /stats summary, which
// wants the traffic shape without the histograms.
func (r *Registry) Totals() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.endpoints))
	for route, ep := range r.endpoints {
		out[route] = ep.count
	}
	return out
}

// Handler serves the Report as JSON (mount it on GET /metrics).
func (r *Registry) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	}
}

// statusRecorder captures the status a handler writes (200 when the
// handler never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// Instrument wraps a handler so every request is observed under route.
func (r *Registry) Instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if r == nil {
		return h
	}
	return func(w http.ResponseWriter, req *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, req)
		r.Observe(route, sr.status, time.Since(start))
	}
}
