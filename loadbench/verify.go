package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"trussdiv"
)

// Verification runs outside every timed window. The reference is a cold
// DB over the same graph with the result cache off and nothing prepared,
// so its fixed-k answers come from the online engine and its k-less ones
// from a scan by the parameter-free engine: the index-free paths every
// prepared structure must agree with byte for byte.

type reference struct{ db *trussdiv.DB }

func newReference(g *trussdiv.Graph) (*reference, error) {
	db, err := trussdiv.Open(g, trussdiv.WithResultCache(0))
	if err != nil {
		return nil, err
	}
	return &reference{db: db}, nil
}

// topRResult mirrors one entry of the server's /topr "results" array.
type topRResult struct {
	Vertex   int32     `json:"vertex"`
	Score    int       `json:"score"`
	Contexts [][]int32 `json:"contexts,omitempty"`
}

// encodeTopR renders res the way the server's /topr handler does.
func encodeTopR(res *trussdiv.Result, withContexts bool) []byte {
	var out []topRResult
	for _, e := range res.TopR {
		r := topRResult{Vertex: e.V, Score: e.Score}
		if withContexts {
			r.Contexts = res.Contexts[e.V]
		}
		out = append(out, r)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return raw
}

// topR answers q on the index-free path, all cores on the one query.
func (ref *reference) topR(q trussdiv.Query) ([]byte, error) {
	q.Engine = "online"
	if q.K == 0 {
		q.Engine = "pfree"
	}
	q.Workers = 0
	res, _, err := ref.db.TopR(ctxBG, q)
	if err != nil {
		return nil, err
	}
	return encodeTopR(res, q.IncludeContexts), nil
}

// probes is how many of the most popular keys of each kind are checked.
var probes = [numKinds]int{3, 2, 2, 8, 4, 1}

// verifyServe sends the most popular keys of every kind through the
// handler and compares each answer with the reference over g, which must
// be the graph the handler now serves.
func verifyServe(res *result, h http.Handler, g *trussdiv.Graph, in *readSet) error {
	ref, err := newReference(g)
	if err != nil {
		return err
	}
	var w recorder
	for kind, n := range probes {
		for i := range min(n, len(in.keys[kind])) {
			k := &in.keys[kind][i]
			status, _ := serve(h, &w, k.method(), k.url, k.body)
			if !ok2xx(status) {
				res.check(fmt.Errorf("%s %s: status %d: %s", k.method(), k.url, status, w.body.Bytes()))
				continue
			}
			res.check(ref.compare(k, w.body.Bytes()))
		}
	}
	return nil
}

// compare checks one handler response body against the reference.
func (ref *reference) compare(k *readKey, body []byte) error {
	switch k.kind {
	case kindScore:
		var got struct{ Score json.RawMessage }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		var want int
		var err error
		if k.k == 0 {
			want, err = ref.db.ScorePFree(ctxBG, k.v, k.m)
		} else {
			want, err = ref.db.ScoreMeasure(ctxBG, k.v, k.k, k.m)
		}
		if err != nil {
			return err
		}
		return equal(k, got.Score, []byte(strconv.Itoa(want)))
	case kindContexts:
		var got struct{ Contexts json.RawMessage }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		var want [][]int32
		var err error
		if k.k == 0 {
			want, err = ref.db.ContextsPFree(ctxBG, k.v, k.m)
		} else {
			want, err = ref.db.ContextsMeasure(ctxBG, k.v, k.k, k.m)
		}
		if err != nil {
			return err
		}
		raw, err := json.Marshal(want)
		if err != nil {
			return err
		}
		// "No contexts" encodes as null from the GCT index and as [] from
		// the online scorer when the ego-network has edges but no
		// qualifying truss; both mean the same empty answer.
		if len(want) == 0 && string(got.Contexts) == "null" {
			return nil
		}
		return equal(k, got.Contexts, raw)
	case kindBatch:
		var got struct {
			Results []struct{ Results json.RawMessage }
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(k.batch) {
			return fmt.Errorf("%s: %d answers for %d queries", k.url, len(got.Results), len(k.batch))
		}
		for i, q := range k.batch {
			want, err := ref.topR(q)
			if err != nil {
				return err
			}
			if err := equal(k, got.Results[i].Results, want); err != nil {
				return fmt.Errorf("batch query %d: %w", i, err)
			}
		}
		return nil
	default:
		var got struct{ Results json.RawMessage }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := ref.topR(k.q)
		if err != nil {
			return err
		}
		return equal(k, got.Results, want)
	}
}

func equal(k *readKey, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s?%s: answer %.200s differs from the reference %.200s",
			k.method(), k.url.Path, k.url.RawQuery, got, want)
	}
	return nil
}

// verifyGraph checks that the serving graph is the input graph with the
// applied edit batches replayed as plain edge-set operations.
func verifyGraph(res *result, serving, input *trussdiv.Graph, edits []trussdiv.Updates, applied []bool) {
	want, err := editedGraph(input, edits, applied)
	if err != nil {
		res.check(err)
		return
	}
	if serving.Fingerprint() != want.Fingerprint() {
		res.check(fmt.Errorf("after %d batches the served graph (%d edges) differs from the edit list applied independently (%d edges)",
			len(applied), serving.M(), want.M()))
		return
	}
	res.check(nil)
}

// verifyScans replays every kept scan on the reference and compares.
func verifyScans(res *result, g *trussdiv.Graph, specs []scanSpec, limit int, clients []*client) error {
	ref, err := newReference(g)
	if err != nil {
		return err
	}
	var h hood
	for _, c := range clients {
		for _, k := range c.kept {
			sp := specs[k.i%int64(len(specs))]
			q := sp.q
			q.Candidates = h.twoHop(g, sp.center, limit)
			want, err := ref.topR(q)
			if err != nil {
				res.check(err)
				continue
			}
			if got := encodeTopR(k.res, false); !bytes.Equal(got, want) {
				res.check(fmt.Errorf("scan %d (center %d, %+v): answer %.200s differs from the reference %.200s",
					k.i, sp.center, sp.q, got, want))
				continue
			}
			res.check(nil)
		}
	}
	return nil
}
