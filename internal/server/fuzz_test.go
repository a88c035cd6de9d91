package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trussdiv/internal/gen"
)

// The write and batch endpoints decode request bodies straight from the
// network, so arbitrary bytes must produce an answer or a typed
// rejection — never a panic, never a 5xx other than a deadline's 504 —
// and a rejected edit batch must leave the served graph exactly as it
// was. Each input gets a fresh server over the paper's 17-vertex example
// graph, so a failing input reproduces on its own. Seed corpora live in
// testdata/fuzz; `make fuzz` explores beyond them. The query strings of
// the read endpoints come from the network too; FuzzQueryParams holds
// them to 200 or 400.

// fuzzServer returns a fresh server over the Figure 1 graph with a
// deadline short enough that a pathological batch ends in a 504.
func fuzzServer() *Server {
	return New(gen.Fig1Graph(), WithTimeout(2*time.Second))
}

// post sends body to path through the handler in-process and checks the
// status invariants every response must meet. It reports whether the
// request was accepted (2xx).
func post(t *testing.T, h http.Handler, path string, body []byte) (accepted bool, resp []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch code := rec.Code; {
	case code == http.StatusGatewayTimeout:
		return false, rec.Body.Bytes()
	case code >= 500:
		t.Fatalf("POST %s %q: status %d: %s", path, body, code, rec.Body.Bytes())
	case code >= 400:
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("POST %s %q: %d without a JSON error body: %q", path, body, code, rec.Body.Bytes())
		}
		return false, rec.Body.Bytes()
	case code != http.StatusOK:
		t.Fatalf("POST %s %q: unexpected status %d", path, body, code)
	}
	return true, rec.Body.Bytes()
}

// FuzzEdgesBody drives POST /edges: an accepted batch advances the epoch
// by exactly one; a rejected one changes neither the epoch nor the
// graph fingerprint.
func FuzzEdgesBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := fuzzServer()
		db := srv.DB()
		epoch, fp := db.Epoch(), db.Graph().Fingerprint()
		accepted, resp := post(t, srv.Handler(), "/edges", body)
		if !accepted {
			if db.Epoch() != epoch || db.Graph().Fingerprint() != fp {
				t.Fatalf("rejected batch %q changed the DB: epoch %d -> %d", body, epoch, db.Epoch())
			}
			return
		}
		var out edgesResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			t.Fatalf("accepted batch %q: undecodable response %q: %v", body, resp, err)
		}
		if db.Epoch() != epoch+1 || out.Epoch != uint64(epoch+1) {
			t.Fatalf("accepted batch %q: epoch %d -> %d (response %d), want one step",
				body, epoch, db.Epoch(), out.Epoch)
		}
		if out.Vertices != db.Graph().N() || out.Edges != db.Graph().M() {
			t.Fatalf("accepted batch %q: response %+v disagrees with the graph", body, out)
		}
	})
}

// FuzzBatchBody drives POST /batch: an accepted body answers every query
// it carried, at the epoch the server is on, and re-encodes from its
// reference shape byte for byte.
func FuzzBatchBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := fuzzServer()
		accepted, resp := post(t, srv.Handler(), "/batch", body)
		if !accepted {
			return
		}
		// The handler decodes one JSON value and ignores what follows.
		var req batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted an undecodable batch %q: %v", body, err)
		}
		reencode(t, "/batch", resp)
		var out refBatch
		if err := json.Unmarshal(resp, &out); err != nil {
			t.Fatalf("batch %q: undecodable response %q: %v", body, resp, err)
		}
		if len(out.Results) != len(req.Queries) {
			t.Fatalf("batch %q: %d results for %d queries", body, len(out.Results), len(req.Queries))
		}
		for i, r := range out.Results {
			if r.Epoch != uint64(srv.DB().Epoch()) {
				t.Fatalf("batch %q: result %d at epoch %d, server at %d", body, i, r.Epoch, srv.DB().Epoch())
			}
		}
	})
}

// FuzzQueryParams sends one raw query string to GET /topr, /score and
// /contexts on a server with no deadline: every answer is 200 or a 400
// with a JSON error body, never a panic or a 5xx, and every 200 body
// re-encodes from its reference shape byte for byte. The seeds are the
// query strings of TestValidationErrors.
func FuzzQueryParams(f *testing.F) {
	for _, u := range validationURLs {
		_, query, _ := strings.Cut(u, "?")
		f.Add(query)
	}
	f.Fuzz(func(t *testing.T, query string) {
		h := New(gen.Fig1Graph()).Handler()
		for _, path := range []string{"/topr", "/score", "/contexts"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				reencode(t, path, rec.Body.Bytes())
			case http.StatusBadRequest:
				var e errorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("GET %s?%s: 400 without a JSON error body: %q", path, query, rec.Body.Bytes())
				}
			default:
				t.Fatalf("GET %s?%s: status %d: %s", path, query, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
