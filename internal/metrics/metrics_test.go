package metrics

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestObserveAndSnapshot(t *testing.T) {
	r := New()
	r.Observe("/topr", 200, 15*time.Microsecond)
	r.Observe("/topr", 200, 90*time.Microsecond)
	r.Observe("/topr", 200, 200*time.Microsecond)
	r.Observe("/topr", 504, 2*time.Second)
	r.Observe("/topr", 400, time.Millisecond)
	r.Observe("/edges", 200, 10*time.Millisecond)

	rep := r.Snapshot()
	if rep.Requests != 6 {
		t.Fatalf("requests = %d, want 6", rep.Requests)
	}
	if len(rep.Endpoints) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(rep.Endpoints))
	}
	// Sorted by route: /edges first.
	topr := rep.Endpoints[1]
	if topr.Route != "/topr" || topr.Count != 5 || topr.Errors != 1 || topr.ClientErrors != 1 {
		t.Fatalf("topr stats = %+v", topr)
	}
	if topr.MaxUS < 2_000_000 {
		t.Fatalf("max_us = %d, want >= 2s", topr.MaxUS)
	}
	var total uint64
	for _, b := range topr.Latency {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("histogram total = %d, want 5", total)
	}
	// The buckets start at 1µs: 15µs lands in le 25, the first non-empty
	// cell, and 90µs in le 100, the next one.
	if len(topr.Latency) < 2 {
		t.Fatalf("latency cells = %+v, want at least 2", topr.Latency)
	}
	if got := topr.Latency[0]; got.LEUS != 25 || got.Count != 1 {
		t.Fatalf("first non-empty cell = %+v, want le 25 count 1", got)
	}
	if got := topr.Latency[1]; got.LEUS != 100 || got.Count != 1 {
		t.Fatalf("second non-empty cell = %+v, want le 100 count 1", got)
	}
}

func TestOverflowBucket(t *testing.T) {
	r := New()
	r.Observe("/slow", 200, time.Hour)
	ep := r.Snapshot().Endpoints[0]
	if len(ep.Latency) != 1 || ep.Latency[0].LEUS != 0 {
		t.Fatalf("want single overflow bucket (le_us 0), got %+v", ep.Latency)
	}
}

func TestInstrumentCapturesStatus(t *testing.T) {
	r := New()
	h := r.Instrument("/fail", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	if _, err := http.Get(ts.URL); err != nil {
		t.Fatal(err)
	}
	ep := r.Snapshot().Endpoints[0]
	if ep.Count != 1 || ep.Errors != 1 {
		t.Fatalf("stats = %+v, want count 1 errors 1", ep)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	r := New()
	r.Observe("/x", 200, time.Millisecond)
	rec := httptest.NewRecorder()
	r.Handler()(rec, httptest.NewRequest("GET", "/metrics", nil))
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("metrics body not JSON: %v", err)
	}
	if rep.Requests != 1 {
		t.Fatalf("requests = %d, want 1", rep.Requests)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Observe("/topr", 200, time.Microsecond*time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Requests; got != 1600 {
		t.Fatalf("requests = %d, want 1600", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Observe("/x", 200, time.Second) // must not panic
	h := r.Instrument("/x", func(w http.ResponseWriter, _ *http.Request) {})
	h(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

// TestGaugeSampledOutsideLock: Snapshot samples the gauges after it has
// released the registry lock, so a gauge callback that records into the
// same registry completes instead of deadlocking.
func TestGaugeSampledOutsideLock(t *testing.T) {
	r := New()
	r.Gauge("reentrant", func() map[string]uint64 {
		r.Observe("/gauge", 200, time.Microsecond)
		return map[string]uint64{"ok": 1}
	})
	done := make(chan Report, 1)
	go func() { done <- r.Snapshot() }()
	select {
	case rep := <-done:
		if rep.Gauges["reentrant"]["ok"] != 1 {
			t.Fatalf("gauges = %v, want reentrant.ok = 1", rep.Gauges)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Snapshot blocked: a gauge callback ran under the registry lock")
	}
	// The second report is built before its own gauge runs, so it counts
	// only the first one's observation.
	if got := r.Snapshot().Requests; got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
}
