package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"trussdiv/internal/gen"
)

// goldenPath holds the byte-exact transcript responsesTranscript
// produces: status, Content-Type and body of every request, with the
// fields that vary between runs masked. A refactor of the handlers must
// leave it unchanged; a deliberate change to the wire format rewrites it
// from responsesTranscript's output in the same change.
const goldenPath = "testdata/responses.golden"

// unstable matches the response fields that differ between two runs of
// the same requests: wall-clock timings and the temporary index dir.
var unstable = regexp.MustCompile(`"(took_us|index_build|index_dir)":("[^"]*"|[0-9]+)`)

type goldenRequest struct {
	method, path, body string
}

func get(path string) goldenRequest { return goldenRequest{http.MethodGet, path, ""} }

func postBody(path, body string) goldenRequest {
	return goldenRequest{http.MethodPost, path, body}
}

// repeatedBatch returns a /batch body of n copies of one query.
func repeatedBatch(n int) string {
	return `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"k":4,"r":1},`, n), ",") + `]}`
}

// repeatedEdits returns an /edges body of n insertions.
func repeatedEdits(n int) string {
	return `{"insert":[` + strings.TrimSuffix(strings.Repeat(`{"u":0,"v":15},`, n), ",") + `]}`
}

// responsesTranscript sends a fixed request sequence to four servers
// over the Figure 1 graph — one cold and writable with an index dir, a
// warm one booted from that dir, a read-only one, and one whose deadline
// has passed before any search starts — and renders every response.
func responsesTranscript(t *testing.T) []byte {
	t.Helper()
	g := gen.Fig1Graph()
	dir := t.TempDir()
	cold := New(g, WithIndexDir(dir))
	warm := New(g, WithIndexDir(dir))
	servers := []struct {
		name     string
		srv      *Server
		requests []goldenRequest
	}{
		{"cold", cold, []goldenRequest{
			get("/healthz"),
			get("/engines"),
			get("/measures"),
			get("/stats"),
			get("/topr?k=4&r=3"),
			get("/topr?k=4&r=3"),
			get("/topr?k=4&r=3&engine=tsd&contexts=true"),
			get("/topr?k=4&r=5&engine=gct&contexts=true"),
			get("/topr?k=3&r=4&engine=online&candidates=1,2,3&workers=2"),
			get("/topr?k=3&r=5&measure=component"),
			get("/topr?k=3&r=5&measure=core&contexts=true"),
			get("/topr?k=3&r=4&engine=comp"),
			get("/topr?k=3&r=4&engine=kcore"),
			get("/topr?r=3"),
			get("/topr?r=3&engine=pfree&contexts=true"),
			get("/topr?k=15&r=1&candidates=0&engine=tsd&contexts=true"),
			get("/score?v=0&k=4"),
			get("/score?v=0"),
			get("/score?v=0&engine=pfree&measure=core"),
			get("/score?v=0&k=3&measure=component"),
			get("/contexts?v=0&k=3"),
			get("/contexts?v=0"),
			get("/contexts?v=0&k=15"),
			get("/contexts?v=0&k=3&measure=core"),
			get("/contexts?v=5&engine=pfree&measure=component"),
			// 400s: every parameter's parse error, in the order the
			// handlers read them, and the engine's own rejections.
			get("/topr?k=4"),
			get("/topr?k=x&r=1"),
			get("/topr?k=4&r=x"),
			get("/topr?k=4&r=1&candidates=1,x"),
			get("/topr?k=4&r=1&workers=x"),
			get("/topr?k=4&r=1&measure=bogus"),
			get("/topr?k=x&r=x&candidates=x&workers=x&measure=x"),
			get("/topr?k=4&r=1&engine=x"),
			get("/topr?k=1&r=1"),
			get("/topr?r=1&engine=gct"),
			get("/topr?k=4&r=1&engine=pfree"),
			get("/topr?k=3&r=5&engine=tsd&measure=component"),
			get("/topr?k=4294967300&r=3"),
			get("/score?v=99&k=4"),
			get("/score?v=0&k=1"),
			get("/score?v=0&k=4&engine=online"),
			get("/score?v=0&k=4&engine=pfree"),
			get("/score?v=0&k=3&measure=nope"),
			get("/score?k=4"),
			get("/score?v=4294967296&k=4294967300"),
			get("/contexts?v=abc&k=4"),
			get("/contexts?v=0&k=abc"),
			get("/contexts?v=0&engine=online&measure=nope"),
			get("/contexts?v=0&k=4&engine=pfree&measure=nope"),
			postBody("/batch", `{"queries":[{"k":4,"r":1},{"k":4,"r":1,"engine":"tsd","workers":2},`+
				`{"k":3,"r":2,"engine":"online","contexts":true},{"k":4,"r":2,"candidates":[0,1,2]},`+
				`{"r":3},{"r":2,"engine":"pfree","contexts":true,"measure":"core"},`+
				`{"k":3,"r":4,"measure":"component"},{"k":3,"r":4,"engine":"comp"}]}`),
			postBody("/batch", ``),
			postBody("/batch", `{}`),
			postBody("/batch", `{"queries":[]}`),
			postBody("/batch", `{"queries":[{"k":1,"r":1}]}`),
			postBody("/batch", `{"queries":[{"k":4,"r":1,"engine":"nope"}]}`),
			postBody("/batch", `{"queries":[{"k":4}]}`),
			postBody("/batch", `{"queries":[{"k":4,"r":1},{"k":3,"r":4,"measure":"nah"}]}`),
			postBody("/batch", `{"queries":[{"k":"4","r":1}]}`),
			postBody("/batch", repeatedBatch(maxBatchQueries+1)),
			get("/batch"),
			postBody("/edges", `{"insert":[{"u":0,"v":15}],"delete":[{"u":0,"v":1}]}`),
			get("/stats"),
			postBody("/edges", `{"insert":[{"u":0,"v":15}]}`),
			postBody("/edges", `{"insert":[{"u":3,"v":3}]}`),
			postBody("/edges", `{"delete":[{"u":0,"v":99}]}`),
			postBody("/edges", `{`),
			postBody("/edges", `{}`),
			postBody("/edges", repeatedEdits(maxEdgeBatch+1)),
			postBody("/edges", `{"insert":[{"u":2,"v":16}],"delete":[{"u":1,"v":2}]}`),
			get("/stats"),
			get("/topr?k=4&r=3&contexts=true"),
			get("/score?v=0&k=4"),
			get("/contexts?v=2"),
			postBody("/batch", `{"queries":[{"k":4,"r":3},{"r":3}]}`),
		}},
		{"warm", warm, []goldenRequest{
			get("/stats"),
			get("/topr?k=4&r=5&engine=gct&contexts=true"),
			get("/topr?k=4&r=3&contexts=1"),
			get("/topr?k=4&r=3&contexts=yes"),
		}},
		{"read-only", New(g, WithReadOnly()), []goldenRequest{
			postBody("/edges", `{"insert":[{"u":0,"v":15}]}`),
			postBody("/edges", `{`),
			get("/stats"),
		}},
		{"expired", New(g, WithTimeout(time.Nanosecond)), []goldenRequest{
			get("/topr?k=4&r=1"),
			get("/topr?k=4&r=1&engine=online"),
			get("/score?v=0&k=4"),
			get("/contexts?v=0&k=4"),
			get("/topr?k=4"),
			postBody("/batch", `{"queries":[{"k":4,"r":1,"engine":"online"}]}`),
		}},
	}
	var out bytes.Buffer
	for _, s := range servers {
		h := s.srv.Handler()
		for _, req := range s.requests {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, strings.NewReader(req.body)))
			body := req.body
			if len(body) > 400 {
				body = fmt.Sprintf("%.60s... (%d bytes)", body, len(body))
			}
			fmt.Fprintf(&out, "== %s %s %s %s\n%d %s\n%s\n", s.name, req.method, req.path,
				body, rec.Code, rec.Header().Get("Content-Type"),
				unstable.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":"*"`)))
		}
	}
	return out.Bytes()
}

// TestResponsesGolden pins every byte the handlers put on the wire.
func TestResponsesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := responsesTranscript(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", goldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, transcript has %d", goldenPath, len(wantLines), len(gotLines))
}
