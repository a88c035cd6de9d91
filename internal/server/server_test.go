package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trussdiv"
	"trussdiv/internal/gen"
	"trussdiv/internal/metrics"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(gen.Fig1Graph())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return body
}

func TestHealthAndStats(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if body["status"] != "ok" {
		t.Fatalf("healthz = %v", body)
	}
	body = getJSON(t, ts.URL+"/stats", http.StatusOK)
	if body["vertices"].(float64) != 17 || body["edges"].(float64) != 43 {
		t.Fatalf("stats = %v", body)
	}
	if body["gct_index_bytes"].(float64) <= 0 {
		t.Fatal("index size missing from stats")
	}
}

func TestTopRAllEngines(t *testing.T) {
	ts := newTestServer(t)
	for _, engine := range []string{"tsd", "gct", "hybrid"} {
		body := getJSON(t, ts.URL+"/topr?k=4&r=1&engine="+engine, http.StatusOK)
		results := body["results"].([]any)
		if len(results) != 1 {
			t.Fatalf("%s: results = %v", engine, results)
		}
		top := results[0].(map[string]any)
		if top["vertex"].(float64) != 0 || top["score"].(float64) != 3 {
			t.Fatalf("%s: top-1 = %v, want vertex 0 score 3", engine, top)
		}
		if _, ok := top["contexts"]; ok {
			t.Fatalf("%s: contexts should be omitted by default", engine)
		}
	}
}

func TestTopRWithContexts(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/topr?k=4&r=1&contexts=true", http.StatusOK)
	top := body["results"].([]any)[0].(map[string]any)
	contexts := top["contexts"].([]any)
	if len(contexts) != 3 {
		t.Fatalf("contexts = %v, want 3 social contexts", contexts)
	}
}

func TestScoreAndContextsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/score?v=0&k=4", http.StatusOK)
	if body["score"].(float64) != 3 {
		t.Fatalf("score = %v", body)
	}
	body = getJSON(t, ts.URL+"/contexts?v=0&k=3", http.StatusOK)
	if body["score"].(float64) != 2 {
		t.Fatalf("contexts score = %v", body)
	}
	if len(body["contexts"].([]any)) != 2 {
		t.Fatalf("contexts = %v", body["contexts"])
	}
}

// TestEmptyContextsAreNullEverywhere pins one wire shape for "no
// contexts": at k=15 the paper vertex's ego-network has edges but no
// context qualifies under any measure, and /contexts must answer
// byte-identically whether the point query runs through the online
// scorer (cold DB) or the GCT index (prepared), and the same "contexts"
// value under every measure. A top-r answer recovering contexts through
// the TSD index carries the same empty value.
func TestEmptyContextsAreNullEverywhere(t *testing.T) {
	g := gen.Fig1Graph()
	get := func(h http.Handler, url string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var want []byte
	for _, engine := range []string{"online", "gct"} {
		db, err := trussdiv.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Prepare(context.Background(), engine); err != nil {
			t.Fatal(err)
		}
		h := (&Server{db: db, metrics: metrics.New()}).Handler()
		body := get(h, "/contexts?v=0&k=15")
		if want == nil {
			want = body
		} else if string(body) != string(want) {
			t.Fatalf("engine=%s: /contexts = %s, engine=online answered %s", engine, body, want)
		}
		for _, measure := range []string{"truss", "component", "core"} {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(get(h, "/contexts?v=0&k=15&measure="+measure), &fields); err != nil {
				t.Fatal(err)
			}
			if c := string(fields["contexts"]); c != "null" {
				t.Fatalf("engine=%s measure=%s: contexts = %s, want null", engine, measure, c)
			}
		}
	}
	// The TSD index recovers contexts of its own. Its top-r answer at the
	// same threshold holds the same nil value for the vertex, which /topr
	// encodes the way it encodes every empty context list: by omitting
	// the field.
	db, err := trussdiv.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := db.TopR(context.Background(), trussdiv.NewQuery(15, 1,
		trussdiv.ViaEngine("tsd"), trussdiv.WithCandidates(0), trussdiv.WithContexts()))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(res.Contexts[0]); string(b) != "null" {
		t.Fatalf("engine=tsd: contexts = %s, want null", b)
	}
	h := (&Server{db: db, metrics: metrics.New()}).Handler()
	var body struct {
		Engine  string                       `json:"engine"`
		Results []map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(get(h, "/topr?k=15&r=1&candidates=0&engine=tsd&contexts=true"), &body); err != nil {
		t.Fatal(err)
	}
	if body.Engine != "tsd" || len(body.Results) != 1 || string(body.Results[0]["vertex"]) != "0" {
		t.Fatalf("engine=tsd: /topr answered %+v, want vertex 0 from tsd", body)
	}
	if c, ok := body.Results[0]["contexts"]; ok {
		t.Fatalf("engine=tsd: /topr contexts = %s, want the field omitted", c)
	}
}

// validationURLs each fail with 400; FuzzQueryParams seeds its corpus
// with their query strings.
var validationURLs = []string{
	"/topr?k=4",                        // missing r
	"/topr?k=4&r=1&engine=x",           // unknown engine
	"/topr?k=1&r=1",                    // k too small (and not parameter-free)
	"/topr?r=1&engine=gct",             // fixed-k engine pinned without k
	"/topr?k=4&r=1&engine=pfree",       // parameter-free engine pinned with k
	"/score?v=99&k=4",                  // vertex out of range
	"/score?v=0&k=1",                   // k too small
	"/score?v=0&k=4&engine=online",     // only pfree has point semantics
	"/score?v=0&k=4&engine=pfree",      // pfree forbids a threshold
	"/contexts?v=abc&k=4",              // non-integer
	"/topr?k=4294967300&r=3",           // k beyond int32 (must not wrap to k=4)
	"/score?v=4294967296&k=4294967300", // v and k beyond int32 (must not wrap to v=0, k=4)
	"/topr?k=4&r=1&contexts=yes",       // contexts takes strconv.ParseBool's values only
}

func TestValidationErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, url := range validationURLs {
		body := getJSON(t, ts.URL+url, http.StatusBadRequest)
		if body["error"] == "" {
			t.Fatalf("%s: missing error body", url)
		}
	}
}

// TestParameterFreeEndpoints drives the k-less paths: /topr without k
// routes to pfree, engine=pfree pins it, and /score answers the
// parameter-free point query when k is absent.
func TestParameterFreeEndpoints(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/topr?r=3", http.StatusOK)
	if body["engine"] != "pfree" || body["routed"] != true {
		t.Fatalf("k-less /topr: engine=%v routed=%v, want pfree/true", body["engine"], body["routed"])
	}
	pinned := getJSON(t, ts.URL+"/topr?r=3&engine=pfree", http.StatusOK)
	if fmt.Sprint(pinned["results"]) != fmt.Sprint(body["results"]) {
		t.Fatalf("pinned pfree diverges from routed k-less query:\n got %v\nwant %v",
			pinned["results"], body["results"])
	}
	// The point path: absent k (or engine=pfree) means parameter-free.
	score := getJSON(t, ts.URL+"/score?v=0", http.StatusOK)
	if score["score"].(float64) < 1 {
		t.Fatalf("parameter-free score of a clique member = %v, want >= 1", score["score"])
	}
	explicit := getJSON(t, ts.URL+"/score?v=0&engine=pfree", http.StatusOK)
	if explicit["score"] != score["score"] {
		t.Fatalf("engine=pfree score %v != k-less score %v", explicit["score"], score["score"])
	}
	cx := getJSON(t, ts.URL+"/contexts?v=0", http.StatusOK)
	if cx["contexts"] == nil {
		t.Fatalf("parameter-free contexts missing: %v", cx)
	}
}

func TestTopRRoutedWhenEngineOmitted(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/topr?k=4&r=1", http.StatusOK)
	if body["routed"] != true {
		t.Fatalf("routed = %v, want true", body["routed"])
	}
	engine, _ := body["engine"].(string)
	if engine == "" {
		t.Fatalf("routed response missing engine name: %v", body)
	}
	top := body["results"].([]any)[0].(map[string]any)
	if top["vertex"].(float64) != 0 || top["score"].(float64) != 3 {
		t.Fatalf("routed top-1 = %v, want vertex 0 score 3", top)
	}

	// An explicit engine passes through the registry and is not "routed".
	body = getJSON(t, ts.URL+"/topr?k=4&r=1&engine=online", http.StatusOK)
	if body["engine"] != "online" || body["routed"] != false {
		t.Fatalf("pinned response = %v", body)
	}
}

func TestEnginesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/engines", http.StatusOK)
	engines := body["engines"].([]any)
	if len(engines) != 8 {
		t.Fatalf("engines = %v, want 8 entries", engines)
	}
}

func TestUnknownEngineListsRegistry(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/topr?k=4&r=1&engine=zap", http.StatusBadRequest)
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "zap") || !strings.Contains(msg, "gct") {
		t.Fatalf("error %q does not identify the unknown engine and the registry", msg)
	}
}

func TestCandidatesParameter(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/topr?k=4&r=3&engine=online&candidates=1,2,3", http.StatusOK)
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %v, want 3", results)
	}
	for _, raw := range results {
		v := raw.(map[string]any)["vertex"].(float64)
		if v < 1 || v > 3 {
			t.Fatalf("vertex %v outside candidate set", v)
		}
	}
	getJSON(t, ts.URL+"/topr?k=4&r=1&candidates=1,x", http.StatusBadRequest)
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return out
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	body := postJSON(t, ts.URL+"/batch", `{"queries":[
		{"k":4,"r":1},
		{"k":4,"r":1,"engine":"tsd","workers":2},
		{"k":3,"r":2,"engine":"online","contexts":true},
		{"k":4,"r":2,"candidates":[0,1,2]}
	]}`, http.StatusOK)
	results := body["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("results = %v, want 4 entries", results)
	}
	// Both the routed and the pinned k=4 r=1 queries find the paper's
	// example vertex.
	for i := 0; i < 2; i++ {
		item := results[i].(map[string]any)
		top := item["results"].([]any)[0].(map[string]any)
		if top["vertex"].(float64) != 0 || top["score"].(float64) != 3 {
			t.Fatalf("batch item %d top-1 = %v, want vertex 0 score 3", i, top)
		}
	}
	if eng := results[1].(map[string]any)["engine"]; eng != "tsd" {
		t.Fatalf("pinned batch item engine = %v, want tsd", eng)
	}
	// Cost-routed items report the engine the batch router chose.
	routedItem := results[0].(map[string]any)
	if routedItem["routed"] != true {
		t.Fatalf("unpinned batch item not marked routed: %v", routedItem)
	}
	if eng, _ := routedItem["engine"].(string); eng == "" {
		t.Fatalf("routed batch item missing resolved engine: %v", routedItem)
	}
	// Contexts come back only where requested.
	withCtx := results[2].(map[string]any)["results"].([]any)[0].(map[string]any)
	if _, ok := withCtx["contexts"]; !ok {
		t.Fatalf("batch item 2 missing contexts: %v", withCtx)
	}
	noCtx := results[0].(map[string]any)["results"].([]any)[0].(map[string]any)
	if _, ok := noCtx["contexts"]; ok {
		t.Fatalf("batch item 0 has contexts without asking: %v", noCtx)
	}
	// Candidate subsets restrict the answers.
	for _, raw := range results[3].(map[string]any)["results"].([]any) {
		if v := raw.(map[string]any)["vertex"].(float64); v < 0 || v > 2 {
			t.Fatalf("batch item 3 vertex %v outside candidates", v)
		}
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		``,                            // empty body
		`{}`,                          // no queries
		`{"queries":[]}`,              // empty queries
		`{"queries":[{"k":1,"r":1}]}`, // k too small
		`{"queries":[{"k":4,"r":1,"engine":"nope"}]}`, // unknown engine
		`{"queries":[{"k":4}]}`,                       // missing r
	} {
		resp := postJSON(t, ts.URL+"/batch", body, http.StatusBadRequest)
		if resp["error"] == "" {
			t.Fatalf("%q: missing error body", body)
		}
	}

	// A batch that exceeds the query cap is rejected outright.
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"k":4,"r":1}`)
	}
	sb.WriteString(`]}`)
	postJSON(t, ts.URL+"/batch", sb.String(), http.StatusBadRequest)
}

func TestBatchTimeoutReturns504(t *testing.T) {
	srv := New(gen.Fig1Graph(), WithTimeout(time.Nanosecond))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	body := postJSON(t, ts.URL+"/batch", `{"queries":[{"k":4,"r":1,"engine":"online"}]}`, http.StatusGatewayTimeout)
	if body["error"] == "" {
		t.Fatal("missing error body")
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	// A deadline that has already passed when the search starts: every
	// engine observes it at its first context poll.
	srv := New(gen.Fig1Graph(), WithTimeout(time.Nanosecond))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/topr?k=4&r=1", "/topr?k=4&r=1&engine=online", "/score?v=0&k=4"} {
		body := getJSON(t, ts.URL+path, http.StatusGatewayTimeout)
		if body["error"] == "" {
			t.Fatalf("%s: missing error body", path)
		}
	}
}

// TestWarmStartFromIndexDir boots one server cold (building and
// persisting its indexes) and a second against the same index directory:
// the second must report a warm start in /stats and answer identically.
func TestWarmStartFromIndexDir(t *testing.T) {
	g := gen.Fig1Graph()
	dir := t.TempDir()

	cold := New(g, WithIndexDir(dir))
	coldTS := httptest.NewServer(cold.Handler())
	t.Cleanup(coldTS.Close)
	coldStats := getJSON(t, coldTS.URL+"/stats", http.StatusOK)
	if got := coldStats["index_source"]; got != "cold" {
		t.Fatalf("first boot index_source = %v, want cold", got)
	}

	warm := New(g, WithIndexDir(dir))
	warmTS := httptest.NewServer(warm.Handler())
	t.Cleanup(warmTS.Close)
	warmStats := getJSON(t, warmTS.URL+"/stats", http.StatusOK)
	if got := warmStats["index_source"]; got != "warm" {
		t.Fatalf("second boot index_source = %v, want warm (stats: %v)", got, warmStats)
	}
	if _, loadFailed := warmStats["index_load_error"]; loadFailed {
		t.Fatalf("warm boot rejected the store: %v", warmStats["index_load_error"])
	}

	coldBody := getJSON(t, coldTS.URL+"/topr?k=4&r=5&engine=gct&contexts=true", http.StatusOK)
	warmBody := getJSON(t, warmTS.URL+"/topr?k=4&r=5&engine=gct&contexts=true", http.StatusOK)
	coldRes, _ := json.Marshal(coldBody["results"])
	warmRes, _ := json.Marshal(warmBody["results"])
	if string(coldRes) != string(warmRes) {
		t.Fatalf("warm answers differ from cold:\n%s\n%s", coldRes, warmRes)
	}
}

// TestEdgesEndpoint drives the live-update write path: a POST /edges
// batch advances the epoch, /stats and /topr report it, the edited graph
// answers subsequent queries, and a rejected batch is a 409 that leaves
// the graph untouched.
func TestEdgesEndpoint(t *testing.T) {
	ts := newTestServer(t)

	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if stats["epoch"].(float64) != 1 {
		t.Fatalf("initial epoch = %v, want 1", stats["epoch"])
	}
	if stats["read_only"].(bool) {
		t.Fatal("server unexpectedly read-only")
	}
	edges := stats["edges"].(float64)

	body := postJSON(t, ts.URL+"/edges", `{"insert":[{"u":0,"v":15}],"delete":[{"u":0,"v":1}]}`, http.StatusOK)
	if body["epoch"].(float64) != 2 {
		t.Fatalf("epoch after apply = %v, want 2", body["epoch"])
	}
	if body["inserted"].(float64) != 1 || body["deleted"].(float64) != 1 {
		t.Fatalf("apply response = %v", body)
	}
	if body["edges"].(float64) != edges {
		t.Fatalf("edge count = %v after +1/-1, want %v", body["edges"], edges)
	}
	if body["repaired"].(float64) <= 0 {
		t.Fatalf("repaired = %v, want > 0 (the server prepares its indexes)", body["repaired"])
	}

	stats = getJSON(t, ts.URL+"/stats", http.StatusOK)
	if stats["epoch"].(float64) != 2 {
		t.Fatalf("stats epoch = %v, want 2", stats["epoch"])
	}
	topr := getJSON(t, ts.URL+"/topr?k=4&r=3&engine=tsd", http.StatusOK)
	if topr["epoch"].(float64) != 2 {
		t.Fatalf("topr epoch = %v, want 2", topr["epoch"])
	}
	batch := postJSON(t, ts.URL+"/batch", `{"queries":[{"k":4,"r":3}]}`, http.StatusOK)
	if batch["results"].([]any)[0].(map[string]any)["epoch"].(float64) != 2 {
		t.Fatalf("batch epoch = %v, want 2", batch)
	}

	// Conflicting batch: inserting a present edge is a 409, epoch frozen.
	body = postJSON(t, ts.URL+"/edges", `{"insert":[{"u":0,"v":15}]}`, http.StatusConflict)
	if body["error"] == "" {
		t.Fatal("409 without an error body")
	}
	stats = getJSON(t, ts.URL+"/stats", http.StatusOK)
	if stats["epoch"].(float64) != 2 {
		t.Fatalf("epoch after rejected batch = %v, want 2", stats["epoch"])
	}

	// Malformed bodies are 400s.
	postJSON(t, ts.URL+"/edges", `{`, http.StatusBadRequest)
	postJSON(t, ts.URL+"/edges", `{}`, http.StatusBadRequest)
}

// TestEdgesReadOnly pins the WithReadOnly contract: 403, nothing applied.
func TestEdgesReadOnly(t *testing.T) {
	srv := New(gen.Fig1Graph(), WithReadOnly())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	body := postJSON(t, ts.URL+"/edges", `{"insert":[{"u":0,"v":15}]}`, http.StatusForbidden)
	if body["error"] == "" {
		t.Fatal("403 without an error body")
	}
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if stats["epoch"].(float64) != 1 || !stats["read_only"].(bool) {
		t.Fatalf("read-only stats = %v", stats)
	}
}

func TestMeasuresEndpoint(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/measures", http.StatusOK)
	measures, ok := body["measures"].([]any)
	if !ok || len(measures) != 3 {
		t.Fatalf("measures = %v, want 3 entries", body["measures"])
	}
	first := measures[0].(map[string]any)
	if first["measure"] != "truss" || first["default"] != true {
		t.Fatalf("first measure = %v, want the truss default", first)
	}
	engines := first["engines"].([]any)
	if len(engines) != 6 {
		t.Fatalf("truss engines = %v, want the five paper engines plus pfree", engines)
	}
}

func TestTopRMeasureParameter(t *testing.T) {
	ts := newTestServer(t)
	// Routed queries under each measure answer 200 and echo the measure;
	// the engine label must come from the measure's row of the matrix.
	allowed := map[string]map[string]bool{
		"truss":     {"online": true, "bound": true, "tsd": true, "gct": true, "hybrid": true},
		"component": {"online": true, "bound": true, "comp": true},
		"core":      {"online": true, "bound": true, "kcore": true},
	}
	for measure, engines := range allowed {
		body := getJSON(t, ts.URL+"/topr?k=3&r=5&measure="+measure, http.StatusOK)
		if body["measure"] != measure {
			t.Fatalf("measure %s echoed as %v", measure, body["measure"])
		}
		if eng := body["engine"].(string); !engines[eng] {
			t.Fatalf("measure %s answered by %q, outside %v", measure, eng, engines)
		}
	}
	// Omitted measure means truss.
	body := getJSON(t, ts.URL+"/topr?k=3&r=5", http.StatusOK)
	if body["measure"] != "truss" {
		t.Fatalf("default measure = %v, want truss", body["measure"])
	}
	// Engine x measure mismatches and unknown names are caller errors.
	getJSON(t, ts.URL+"/topr?k=3&r=5&engine=tsd&measure=component", http.StatusBadRequest)
	getJSON(t, ts.URL+"/topr?k=3&r=5&measure=bogus", http.StatusBadRequest)
	// score/contexts accept the measure too.
	body = getJSON(t, ts.URL+"/score?v=0&k=3&measure=component", http.StatusOK)
	if body["measure"] != "component" {
		t.Fatalf("score measure = %v", body["measure"])
	}
	getJSON(t, ts.URL+"/contexts?v=0&k=3&measure=core", http.StatusOK)
	getJSON(t, ts.URL+"/score?v=0&k=3&measure=nope", http.StatusBadRequest)
}

func TestBatchMeasureField(t *testing.T) {
	ts := newTestServer(t)
	body := `{"queries":[
		{"k":3,"r":4},
		{"k":3,"r":4,"measure":"component"},
		{"k":3,"r":4,"measure":"core","engine":"kcore"}
	]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Engine  string `json:"engine"`
			Measure string `json:"measure"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results", len(out.Results))
	}
	wantMeasures := []string{"truss", "component", "core"}
	for i, res := range out.Results {
		if res.Measure != wantMeasures[i] {
			t.Fatalf("batch result %d measure = %q, want %q", i, res.Measure, wantMeasures[i])
		}
	}
	if out.Results[2].Engine != "kcore" {
		t.Fatalf("pinned batch query answered by %q", out.Results[2].Engine)
	}
	// A bad measure inside the batch fails the whole request.
	resp2, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[{"k":3,"r":4,"measure":"nah"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad measure batch status = %d, want 400", resp2.StatusCode)
	}
}

// TestPinnedNativeEngineEchoesItsMeasure: engine=comp with no measure
// parameter answers under the component model (the pre-measure calling
// convention); the response must label it component, not truss.
func TestPinnedNativeEngineEchoesItsMeasure(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/topr?k=3&r=4&engine=comp", http.StatusOK)
	if body["measure"] != "component" {
		t.Fatalf("engine=comp echoed measure %v, want component", body["measure"])
	}
	body = getJSON(t, ts.URL+"/topr?k=3&r=4&engine=kcore", http.StatusOK)
	if body["measure"] != "core" {
		t.Fatalf("engine=kcore echoed measure %v, want core", body["measure"])
	}
	// Truss engines keep the truss label.
	body = getJSON(t, ts.URL+"/topr?k=3&r=4&engine=tsd", http.StatusOK)
	if body["measure"] != "truss" {
		t.Fatalf("engine=tsd echoed measure %v, want truss", body["measure"])
	}
	// Same rule inside a batch.
	resp, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[{"k":3,"r":4,"engine":"comp"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Measure string `json:"measure"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Measure != "component" {
		t.Fatalf("batch engine=comp echoed %+v, want component", out.Results)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Generate traffic on two routes, including a caller error.
	getJSON(t, ts.URL+"/topr?k=3&r=5", http.StatusOK)
	getJSON(t, ts.URL+"/topr?k=3&r=5", http.StatusOK)
	getJSON(t, ts.URL+"/topr?k=3", http.StatusBadRequest) // missing r
	getJSON(t, ts.URL+"/healthz", http.StatusOK)

	body := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if got := body["requests"].(float64); got < 4 {
		t.Fatalf("metrics requests = %v, want >= 4", got)
	}
	eps, ok := body["endpoints"].([]any)
	if !ok || len(eps) < 2 {
		t.Fatalf("metrics endpoints = %v, want >= 2 routes", body["endpoints"])
	}
	var topr map[string]any
	for _, e := range eps {
		ep := e.(map[string]any)
		if ep["route"] == "/topr" {
			topr = ep
		}
	}
	if topr == nil {
		t.Fatalf("no /topr route in metrics: %v", eps)
	}
	if topr["count"].(float64) != 3 || topr["client_errors"].(float64) != 1 {
		t.Fatalf("topr metrics = %v, want count 3, client_errors 1", topr)
	}
	if _, ok := topr["latency"].([]any); !ok {
		t.Fatalf("topr metrics missing latency histogram: %v", topr)
	}

	// /stats summarizes the same counters per route.
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	reqs, ok := stats["requests"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing requests summary: %v", stats["requests"])
	}
	if reqs["/topr"].(float64) != 3 {
		t.Fatalf("stats requests[/topr] = %v, want 3", reqs["/topr"])
	}
}

// TestPprofOptIn: the profiling endpoints exist only under WithPprof —
// a default server must not leak them.
func TestPprofOptIn(t *testing.T) {
	get := func(ts *httptest.Server) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	off := newTestServer(t)
	if code := get(off); code != http.StatusNotFound {
		t.Fatalf("pprof off: /debug/pprof/heap status %d, want 404", code)
	}

	on := httptest.NewServer(New(gen.Fig1Graph(), WithPprof()).Handler())
	t.Cleanup(on.Close)
	if code := get(on); code != http.StatusOK {
		t.Fatalf("pprof on: /debug/pprof/heap status %d, want 200", code)
	}
}

// TestEdgesRepairedWithRankingsOnly: "repaired" reports the ego-networks
// the patch pass re-derived even when the DB holds only ranking tables
// (no TSD or GCT index) — the same count a fully prepared server reports
// for the same batch.
func TestEdgesRepairedWithRankingsOnly(t *testing.T) {
	const batch = `{"insert":[{"u":0,"v":15}],"delete":[{"u":0,"v":1}]}`
	repaired := func(srv *Server) int {
		t.Helper()
		accepted, resp := post(t, srv.Handler(), "/edges", []byte(batch))
		if !accepted {
			t.Fatalf("batch rejected: %s", resp)
		}
		var out edgesResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			t.Fatal(err)
		}
		return out.Repaired
	}
	want := repaired(New(gen.Fig1Graph()))
	if want <= 0 {
		t.Fatalf("prepared server repaired %d ego-networks, want > 0", want)
	}
	for _, name := range []string{"comp", "pfree"} {
		db, err := trussdiv.Open(gen.Fig1Graph())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Prepare(context.Background(), name); err != nil {
			t.Fatal(err)
		}
		if got := repaired(&Server{db: db, metrics: metrics.New()}); got != want {
			t.Errorf("Prepare(%s): repaired = %d, want %d", name, got, want)
		}
	}
}
