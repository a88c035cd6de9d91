package trussdiv

import (
	"context"
	"fmt"

	"trussdiv/internal/core"
	"trussdiv/internal/pfree"
)

// Measure names one structural diversity definition — the axis the DB
// can vary independently of the engine. The library ships three:
//
//   - MeasureTruss (the default): maximal connected k-trusses of the
//     ego-network, the paper's model.
//   - MeasureComponent: connected components with at least k vertices
//     (Huang et al. / Chang et al.).
//   - MeasureCore: maximal connected k-cores (Huang et al.).
//
// Queries select a measure with Query.Measure / WithMeasure; the DB
// routes them to the cheapest engine that serves that measure (see
// DB.Measures for the routing matrix). An empty Measure means truss, so
// unqualified queries behave exactly as before the measure axis existed.
type Measure = core.Measure

const (
	// MeasureTruss is the paper's truss-based diversity (the default).
	MeasureTruss = core.MeasureTruss
	// MeasureComponent is the component-based diversity of [7, 21].
	MeasureComponent = core.MeasureComponent
	// MeasureCore is the core-based diversity of [20].
	MeasureCore = core.MeasureCore
)

// AllMeasures lists every supported measure, default first.
func AllMeasures() []Measure { return core.AllMeasures() }

// ParseMeasure resolves a user-supplied measure name; the empty string
// is the truss default. Unknown names error.
func ParseMeasure(s string) (Measure, error) { return core.ParseMeasure(s) }

// ErrUnsupportedMeasure is the sentinel matched by errors.Is when a
// query pairs an engine with a measure that engine cannot compute (for
// example engine=tsd with measure=component: the TSD forest encodes
// truss decompositions only). The concrete error is an
// *UnsupportedMeasureError naming both sides of the mismatch.
var ErrUnsupportedMeasure = core.ErrUnsupportedMeasure

// UnsupportedMeasureError reports an (engine, measure) pair outside the
// routing matrix.
type UnsupportedMeasureError = core.UnsupportedMeasureError

// MeasureLister is the optional interface an Engine implements to
// declare which measures it serves. Engines without it are assumed to
// compute the truss measure only — the right default for pre-measure
// custom backends registered through DB.Register.
type MeasureLister interface {
	Measures() []Measure
}

// MeasureInfo describes one measure the DB serves: the engines that can
// answer queries under it (in registration order) and whether it is the
// default for unqualified queries.
type MeasureInfo struct {
	Measure Measure  `json:"measure"`
	Engines []string `json:"engines"`
	Default bool     `json:"default,omitempty"`
}

// Measures reports the DB's measure axis: every supported measure with
// the engines that serve it. With the built-in registry that is truss →
// {online, bound, tsd, gct, hybrid}, component → {online, bound, comp},
// core → {online, bound, kcore}; engines added through DB.Register
// appear under the measures their MeasureLister declares (truss only
// when they do not implement it).
func (db *DB) Measures() []MeasureInfo { return db.Snapshot().Measures() }

// Measures reports the measure axis of this snapshot; see DB.Measures.
func (s *Snapshot) Measures() []MeasureInfo {
	out := make([]MeasureInfo, 0, len(core.AllMeasures()))
	for _, m := range core.AllMeasures() {
		out = append(out, MeasureInfo{
			Measure: m,
			Engines: s.reg.enginesFor(m),
			Default: m == MeasureTruss,
		})
	}
	return out
}

// EffectiveMeasure reports the measure a query's answer was computed
// under: the query's own Measure when set, else the engine's native
// definition — the single measure a MeasureLister declares, or truss
// (the multi-measure engines' default and the assumption for engines
// predating the measure axis). Response labelers (the HTTP server,
// tsdsearch) use it so an explicitly pinned comp/kcore engine is not
// reported as answering with truss semantics.
func EffectiveMeasure(q Query, e Engine) Measure {
	if q.Measure != "" {
		return q.Measure.Normalize()
	}
	if ml, ok := e.(MeasureLister); ok {
		if ms := ml.Measures(); len(ms) == 1 {
			return ms[0].Normalize()
		}
	}
	return MeasureTruss
}

// nativeMeasureEngine names the engine that computes measure m directly
// (the point-query backend for the non-truss measures).
func nativeMeasureEngine(m Measure) string {
	switch m.Normalize() {
	case MeasureComponent:
		return "comp"
	case MeasureCore:
		return "kcore"
	}
	return ""
}

// ScoreMeasure returns score(v) at threshold k under measure m on the
// current snapshot. MeasureTruss (and the empty measure) behaves exactly
// like Score; the other measures answer through their native models.
func (db *DB) ScoreMeasure(ctx context.Context, v, k int32, m Measure) (int, error) {
	return db.Snapshot().ScoreMeasure(ctx, v, k, m)
}

// ContextsMeasure returns the social contexts SC(v) at threshold k under
// measure m on the current snapshot.
func (db *DB) ContextsMeasure(ctx context.Context, v, k int32, m Measure) ([][]int32, error) {
	return db.Snapshot().ContextsMeasure(ctx, v, k, m)
}

// ScorePFree returns the parameter-free diversity score of v under
// measure m on the current snapshot: the largest h with
// score_m(v, max(h,2)) >= h, and 0 for vertices with no contexts. No
// threshold is taken — the objective chooses the discriminating level
// itself (the point-query twin of engine=pfree top-r search).
func (db *DB) ScorePFree(ctx context.Context, v int32, m Measure) (int, error) {
	return db.Snapshot().ScorePFree(ctx, v, m)
}

// ContextsPFree returns SC(v) at v's discriminating level
// k* = max(ScorePFree(v), 2) under measure m; nil when the score is 0.
func (db *DB) ContextsPFree(ctx context.Context, v int32, m Measure) ([][]int32, error) {
	return db.Snapshot().ContextsPFree(ctx, v, m)
}

// ScorePFree returns the parameter-free score of v under measure m; see
// DB.ScorePFree.
func (s *Snapshot) ScorePFree(ctx context.Context, v int32, m Measure) (int, error) {
	if err := s.pfreePointErr(ctx, v, &m); err != nil {
		return 0, err
	}
	return pfree.ScoreAt(s.cache.scorers[m], v), nil
}

// ContextsPFree returns SC(v) at v's discriminating level under measure
// m; see DB.ContextsPFree.
func (s *Snapshot) ContextsPFree(ctx context.Context, v int32, m Measure) ([][]int32, error) {
	if err := s.pfreePointErr(ctx, v, &m); err != nil {
		return nil, err
	}
	return pfree.ContextsAt(s.cache.scorers[m], v), nil
}

// pfreePointErr validates a parameter-free point query and normalizes
// the measure in place.
func (s *Snapshot) pfreePointErr(ctx context.Context, v int32, m *Measure) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !m.Valid() {
		_, err := ParseMeasure(string(*m))
		return err
	}
	*m = m.Normalize()
	if v < 0 || int(v) >= s.g.N() {
		return fmt.Errorf("trussdiv: vertex %d out of range [0,%d)", v, s.g.N())
	}
	return nil
}

// ScoreMeasure returns score(v) at threshold k under measure m; see
// DB.ScoreMeasure.
func (s *Snapshot) ScoreMeasure(ctx context.Context, v, k int32, m Measure) (int, error) {
	if !m.Valid() {
		_, err := ParseMeasure(string(m))
		return 0, err
	}
	if name := nativeMeasureEngine(m); name != "" {
		e, err := s.reg.lookup(name)
		if err != nil {
			return 0, err
		}
		return e.Score(ctx, v, k)
	}
	return s.Score(ctx, v, k)
}

// ContextsMeasure returns SC(v) at threshold k under measure m; see
// DB.ContextsMeasure.
func (s *Snapshot) ContextsMeasure(ctx context.Context, v, k int32, m Measure) ([][]int32, error) {
	if !m.Valid() {
		_, err := ParseMeasure(string(m))
		return nil, err
	}
	if name := nativeMeasureEngine(m); name != "" {
		e, err := s.reg.lookup(name)
		if err != nil {
			return nil, err
		}
		return e.Contexts(ctx, v, k)
	}
	return s.Contexts(ctx, v, k)
}
