package trussdiv

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"trussdiv/internal/core"
	"trussdiv/internal/store"
)

// ErrUnknownEngine is the sentinel matched by errors.Is when an engine
// name is not in the catalogue; the concrete error is
// *UnknownEngineError.
var ErrUnknownEngine = errors.New("trussdiv: unknown engine")

// UnknownEngineError reports a lookup for an engine name that does not
// exist, together with the names that do.
type UnknownEngineError struct {
	Name  string
	Known []string
}

func (e *UnknownEngineError) Error() string {
	return fmt.Sprintf("trussdiv: unknown engine %q (known: %s)",
		e.Name, strings.Join(e.Known, "|"))
}

// Is makes errors.Is(err, ErrUnknownEngine) match.
func (e *UnknownEngineError) Is(target error) bool { return target == ErrUnknownEngine }

// catalogue is one snapshot's table of the eight built-in engines, in
// listing order. It is fixed when the snapshot is built, so routing,
// pinned lookups and the listings read it without locks or allocations.
// The table is effectively keyed by (engine, measure): an entry's check
// verifies that it serves a query's measure, and routing considers only
// the entries serving the query's measure on the query's side of the K
// axis.
type catalogue []catalogueEntry

// catalogueEntry is one engine of the catalogue, and the only
// implementation of Engine: its name, the measures it serves, whether it
// is the parameter-free engine — the only one that takes queries without
// a K, and the only one such queries route to — the index cache sections
// it reads, which Prepare and Batch ready, and two functions: search
// answers a query that check has accepted, and cost prices a query for
// routing without loading or building anything.
type catalogueEntry struct {
	name     string
	measures []Measure
	kless    bool
	needs    []store.SectionRef
	search   func(context.Context, core.Params) (*Result, *Stats, error)
	cost     func(Query) Estimate
}

// Name returns the catalogue key.
func (e *catalogueEntry) Name() string { return e.name }

// Measures returns the entry's own list; callers must not modify it.
func (e *catalogueEntry) Measures() []Measure { return e.measures }

// Cost prices q for routing.
func (e *catalogueEntry) Cost(q Query) Estimate { return e.cost(q) }

// TopR answers q outside routing and the result cache: a cancelled ctx
// wins over a malformed query, which wins over the search. The Stats are
// nil when q.SkipStats is set.
func (e *catalogueEntry) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := e.check(q); err != nil {
		return nil, nil, err
	}
	res, stats, err := e.run(ctx, q)
	if q.SkipStats {
		stats = nil
	}
	return res, stats, err
}

// run answers a query that check has accepted, under the measure the
// answer is reported with. The context is checked first, so a cancelled
// query never starts an index build.
func (e *catalogueEntry) run(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	p := q.params()
	p.Measure = EffectiveMeasure(q, e)
	return e.search(ctx, p)
}

// check is the engine's whole query contract, shared by direct TopR
// calls and ViaEngine pins. An unknown measure is the ParseMeasure
// error. An explicit measure the engine does not serve is an
// *UnsupportedMeasureError; an empty one means the engine's native
// definition, which is what pre-measure callers of engine=comp/kcore
// meant. A K that breaks the engine's K contract is a *BadQueryError: the
// parameter-free engine takes no threshold (K must stay 0), every other
// engine requires K >= 2.
func (e *catalogueEntry) check(q Query) error {
	if !q.Measure.Valid() {
		_, err := ParseMeasure(string(q.Measure))
		return err
	}
	if m := q.Measure.Normalize(); q.Measure != "" && !e.serves(m) {
		return &UnsupportedMeasureError{Engine: e.name, Measure: m}
	}
	reason := ""
	switch {
	case e.kless:
		if q.K != 0 {
			reason = "engine is parameter-free: leave k unset (0)"
		}
	case q.K == 0:
		reason = "k is required (only parameter-free engines accept queries without k)"
	case q.K < 2:
		reason = "k must be >= 2"
	}
	if reason != "" {
		return &BadQueryError{Engine: e.name, K: q.K, Reason: reason}
	}
	return nil
}

// serves reports whether the entry's engine computes normalized measure m.
func (e *catalogueEntry) serves(m Measure) bool { return slices.Contains(e.measures, m) }

func (c catalogue) lookup(name string) (*catalogueEntry, error) {
	for i := range c {
		if c[i].name == name {
			return &c[i], nil
		}
	}
	return nil, &UnknownEngineError{Name: name, Known: c.names()}
}

func (c catalogue) names() []string {
	out := make([]string, len(c))
	for i := range c {
		out[i] = c[i].name
	}
	return out
}

// enginesFor lists every engine serving measure m, in listing order.
func (c catalogue) enginesFor(m Measure) []string {
	m = m.Normalize()
	var out []string
	for i := range c {
		if c[i].serves(m) {
			out = append(out, c[i].name)
		}
	}
	return out
}
