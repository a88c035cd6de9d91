//go:build !race

package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"trussdiv/internal/gen"
)

// discardWriter is a ResponseWriter that keeps nothing, so a measured
// request allocates only what the handler does.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestCachedTopRAllocs pins the allocations of a /topr answer the result
// cache holds, through Handler(): the same count at r = 5 and at r = 200,
// so encoding an answer costs no allocation per result. (The race
// detector makes sync.Pool drop items at random, hence !race.)
func TestCachedTopRAllocs(t *testing.T) {
	h := New(gen.CommunityOverlay(gen.OverlayConfig{
		N: 500, Attach: 3, Cliques: 100, MinSize: 4, MaxSize: 8, Seed: 11,
	})).Handler()
	w := &discardWriter{h: http.Header{}}
	allocs := func(url string) float64 {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // fills the result cache
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
		}
		return testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	}
	small, large := allocs("/topr?k=4&r=5"), allocs("/topr?k=4&r=200")
	t.Logf("cached /topr: %.0f allocs at r = 5, %.0f at r = 200", small, large)
	if small != large {
		t.Fatalf("cached /topr made %.0f allocs at r = 5 but %.0f at r = 200: encoding allocates per result",
			small, large)
	}
}
