package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out as
// JSONL when the run ends. Spans are recorded by benchmark code around
// its calls into each layer; nothing inside the program is instrumented.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	pass int // set between passes, while no client runs

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Spans of one request share Req; Parent
// is 0 for a root. Self is the span's duration minus the part of it its
// children cover, filled in by finish.
type span struct {
	ID     int64  `json:"id"`
	Req    int64  `json:"req"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type openSpan struct {
	id, req, parent int64
	name            string
	start           time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(req, parent int64, name string) openSpan {
	return openSpan{id: t.ids.Add(1), req: req, parent: parent, name: name, start: time.Now()}
}

// end records o and returns its duration.
func (t *tracer) end(o openSpan) time.Duration {
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Req: o.req, Pass: t.pass, Name: o.name, Parent: o.parent,
		Start: o.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return now.Sub(o.start)
}

// finish computes every span's self time and checks that the spans form
// a tree: each parent exists, belongs to the same request and pass, and
// encloses its children.
func (t *tracer) finish() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.ID] = i
	}
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d was never recorded", s.ID, s.Name, s.Parent)
		}
		p := t.spans[pi]
		if p.Req != s.Req || p.Pass != s.Pass {
			return fmt.Errorf("span %d (%s) and its parent %d belong to different requests", s.ID, s.Name, p.ID)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(t.spans[a].Start, t.spans[b].Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			c := t.spans[k]
			if c.End <= reach {
				continue
			}
			covered += c.End - max(c.Start, reach)
			reach = c.End
		}
		s.Self = s.dur() - covered
	}
	return nil
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqTimes sums, per request of one pass, the durations of the spans the
// filter selects.
func (t *tracer) reqTimes(pass int, keep func(span) bool) map[int64]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]int64{}
	for _, s := range t.spans {
		if s.Pass == pass && keep(s) {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// durations lists the durations of one pass's spans with the given name.
func (t *tracer) durations(pass int, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Pass == pass && s.Name == name {
			out = append(out, time.Duration(s.dur()))
		}
	}
	return out
}
