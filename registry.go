package trussdiv

import (
	"errors"
	"fmt"
	"slices"
	"strings"

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
// The table is effectively keyed by (engine, measure): lookups that carry
// a measure verify support, and routing considers only the entries
// serving the query's measure on the query's side of the K axis.
type catalogue []catalogueEntry

// catalogueEntry is one engine with the measures it serves (its
// Measures, read once), whether it is the parameter-free engine — the
// only one that takes queries without a K, and the only one such queries
// route to — and the index cache sections it reads, which Prepare and
// Batch ready.
type catalogueEntry struct {
	name     string
	engine   Engine
	measures []Measure
	kless    bool
	needs    []store.SectionRef
}

// entry catalogues engine e, which reads the cache sections needs.
func entry(e Engine, needs ...store.SectionRef) catalogueEntry {
	_, kless := e.(*pfreeEngine)
	return catalogueEntry{name: e.Name(), engine: e, measures: e.Measures(), kless: kless, needs: needs}
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

// lookupFor is the (engine, measure)-keyed lookup: the named engine must
// exist and, when a measure is given explicitly, serve it. An empty
// measure imposes no constraint — an explicitly pinned engine then
// answers under its native definition, which is what pre-measure callers
// of engine=comp/kcore meant. A measure name that does not exist at all
// is a parse error, not an *UnsupportedMeasureError — the same category
// the unpinned routing path reports.
func (c catalogue) lookupFor(name string, m Measure) (*catalogueEntry, error) {
	if !m.Valid() {
		_, err := ParseMeasure(string(m))
		return nil, err
	}
	e, err := c.lookup(name)
	if err != nil {
		return nil, err
	}
	if m != "" && !e.serves(m.Normalize()) {
		return nil, &UnsupportedMeasureError{Engine: name, Measure: m.Normalize()}
	}
	return e, nil
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
