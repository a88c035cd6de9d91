package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"trussdiv"
	"trussdiv/internal/testutil"
)

// The reference shapes: the tagged structs encoding/json encoded the
// query answers from before they encoded themselves. Every hand-encoded
// body must equal json.Marshal of its reference plus json.Encoder's
// trailing newline, byte for byte.

type refTopR struct {
	Engine   string           `json:"engine"`
	Routed   bool             `json:"routed"`
	Measure  trussdiv.Measure `json:"measure"`
	Epoch    uint64           `json:"epoch"`
	K        int              `json:"k"`
	R        int              `json:"r"`
	TookUS   *int64           `json:"took_us,omitempty"`
	Searched *int             `json:"search_space,omitempty"`
	Results  []refResult      `json:"results"`
}

type refResult struct {
	Vertex   int32     `json:"vertex"`
	Score    int       `json:"score"`
	Contexts [][]int32 `json:"contexts,omitempty"`
}

type refBatch struct {
	TookUS  int64     `json:"took_us"`
	Results []refTopR `json:"results"`
}

// refPoint's Contexts is a pointer so /score omits it while an empty
// /contexts answer encodes null.
type refPoint struct {
	Contexts *[][]int32       `json:"contexts,omitempty"`
	K        int32            `json:"k"`
	Measure  trussdiv.Measure `json:"measure"`
	Score    int              `json:"score"`
	Vertex   int32            `json:"vertex"`
}

// refOfTopR builds t's reference the way the handlers once built it.
func refOfTopR(t *topRResponse) refTopR {
	ref := refTopR{Engine: t.Engine, Routed: t.Routed, Measure: t.Measure,
		Epoch: t.Res.Epoch, K: int(t.K), R: t.R}
	if t.Timed {
		took, searched := t.TookUS, t.Searched
		ref.TookUS, ref.Searched = &took, &searched
	}
	for _, e := range t.Res.TopR {
		out := refResult{Vertex: e.V, Score: e.Score}
		if t.Contexts {
			out.Contexts = t.Res.Contexts[e.V]
		}
		ref.Results = append(ref.Results, out)
	}
	return ref
}

func refOfBatch(b *batchResponse) refBatch {
	ref := refBatch{TookUS: b.TookUS}
	for i := range b.Results {
		ref.Results = append(ref.Results, refOfTopR(&b.Results[i]))
	}
	return ref
}

func refOfPoint(p *pointResponse) refPoint {
	ref := refPoint{K: p.K, Measure: p.Measure, Score: p.Score, Vertex: p.Vertex}
	if p.WithContexts {
		cs := p.Contexts
		ref.Contexts = &cs
	}
	return ref
}

// answerGen draws the values the encoders must render, biased toward
// the edges: int32 and int extremes, zero-score padding, names that
// need escaping, and every empty shape of a context list.
type answerGen struct{ rng *rand.Rand }

var (
	int32Edges = []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	intEdges   = []int{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	names      = []string{"", "hybrid", "truss", "component", `a"b`, `back\slash`, "<tag>&amp;",
		"tab\tnew\nline", "\x00\x1f", "é", "  ", "\xff\xfe", "日本"}
)

func (g answerGen) int32() int32 {
	if g.rng.Intn(3) == 0 {
		return int32Edges[g.rng.Intn(len(int32Edges))]
	}
	return int32(g.rng.Uint32())
}

func (g answerGen) int() int {
	if g.rng.Intn(3) == 0 {
		return intEdges[g.rng.Intn(len(intEdges))]
	}
	return int(g.rng.Int63()) - int(g.rng.Int63())
}

func (g answerGen) name() string { return names[g.rng.Intn(len(names))] }

// contexts returns nil, an empty list, or groups among which a group may
// itself be nil or empty.
func (g answerGen) contexts() [][]int32 {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return [][]int32{}
	}
	cs := make([][]int32, 1+g.rng.Intn(3))
	for i := range cs {
		switch g.rng.Intn(6) {
		case 0: // nil group
		case 1:
			cs[i] = []int32{}
		default:
			for range 1 + g.rng.Intn(5) {
				cs[i] = append(cs[i], g.int32())
			}
		}
	}
	return cs
}

// result returns an answer of up to 8 entries, padded with zero scores
// sometimes, whose context map is nil, empty, or holds some of its
// vertices and a vertex it does not list.
func (g answerGen) result() *trussdiv.Result {
	res := &trussdiv.Result{Epoch: g.rng.Uint64()}
	if g.rng.Intn(4) == 0 {
		res.Epoch = math.MaxUint64
	}
	switch g.rng.Intn(5) {
	case 0: // nil TopR
	case 1:
		res.TopR = []trussdiv.VertexScore{}
	default:
		for range 1 + g.rng.Intn(8) {
			res.TopR = append(res.TopR, trussdiv.VertexScore{V: g.int32(), Score: g.int()})
		}
		if g.rng.Intn(2) == 0 {
			for range 1 + g.rng.Intn(4) {
				res.TopR = append(res.TopR, trussdiv.VertexScore{V: g.int32()})
			}
		}
	}
	switch g.rng.Intn(3) {
	case 0: // nil map
	case 1:
		res.Contexts = map[int32][][]int32{}
	default:
		res.Contexts = map[int32][][]int32{g.int32(): g.contexts()}
		for _, e := range res.TopR {
			if g.rng.Intn(3) > 0 {
				res.Contexts[e.V] = g.contexts()
			}
		}
	}
	return res
}

func (g answerGen) topR(timed bool) topRResponse {
	t := topRResponse{Engine: g.name(), Routed: g.rng.Intn(2) == 0,
		Measure: trussdiv.Measure(g.name()), K: g.int32(), R: g.int(),
		Contexts: g.rng.Intn(2) == 0, Res: g.result()}
	if timed {
		t.Timed, t.TookUS, t.Searched = true, int64(g.int()), g.int()
	}
	return t
}

func (g answerGen) point() pointResponse {
	p := pointResponse{WithContexts: g.rng.Intn(2) == 0, K: g.int32(),
		Measure: trussdiv.Measure(g.name()), Score: g.int(), Vertex: g.int32()}
	if p.WithContexts {
		p.Contexts = g.contexts()
	}
	return p
}

// TestAppendJSONMatchesEncodingJSON holds every hand-encoded body to
// json.Marshal of its reference shape plus '\n', over random answers.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	g := answerGen{testutil.Rand(t, 40)}
	var buf []byte // reused, as Server.serve reuses its pooled buffers
	check := func(a appender, ref any) {
		t.Helper()
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if buf = append(a.appendJSON(buf[:0]), '\n'); !bytes.Equal(buf, want) {
			t.Fatalf("hand-encoded body differs from encoding/json:\n got %s\nwant %s", buf, want)
		}
	}
	for range 3000 {
		tr := g.topR(g.rng.Intn(2) == 0)
		check(&tr, refOfTopR(&tr))

		b := batchResponse{TookUS: int64(g.int())}
		if n := g.rng.Intn(5); n > 0 || g.rng.Intn(2) == 0 {
			b.Results = make([]topRResponse, n)
			for i := range b.Results {
				b.Results[i] = g.topR(false)
			}
		}
		check(&b, refOfBatch(&b))

		p := g.point()
		check(&p, refOfPoint(&p))
	}
}

// reencode decodes a 200 body of GET path (/topr, /score, /contexts) or
// POST /batch into its reference shape and requires json.Marshal of it,
// plus '\n', to give the body back byte for byte: every answer a fuzzer
// reaches checks the hand encoder.
func reencode(t *testing.T, path string, body []byte) {
	t.Helper()
	var ref any
	switch path {
	case "/topr":
		ref = new(refTopR)
	case "/batch":
		ref = new(refBatch)
	case "/score", "/contexts":
		ref = new(refPoint)
	default:
		t.Fatalf("no reference shape for %s", path)
	}
	if err := json.Unmarshal(body, ref); err != nil {
		t.Fatalf("%s: undecodable response %q: %v", path, body, err)
	}
	if p, ok := ref.(*refPoint); ok && path == "/contexts" && p.Contexts == nil {
		// Decoding "contexts":null clears the pointer; /contexts always
		// carries the field, so restore it (an omitted field then fails).
		p.Contexts = new([][]int32)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Fatalf("%s: body differs from its reference re-encoded:\n got %s\nwant %s", path, body, want)
	}
}
