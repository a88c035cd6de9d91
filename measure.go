package trussdiv

import (
	"context"

	"trussdiv/internal/core"
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

// MeasureInfo describes one measure the DB serves: the engines that can
// answer queries under it (in catalogue order) and whether it is the
// default for unqualified queries.
type MeasureInfo struct {
	Measure Measure  `json:"measure"`
	Engines []string `json:"engines"`
	Default bool     `json:"default,omitempty"`
}

// Measures reports the DB's measure axis: every supported measure with
// the engines that serve it — truss → {online, bound, tsd, gct, hybrid,
// pfree}, component → {online, bound, comp, pfree}, core → {online,
// bound, kcore, pfree}.
func (db *DB) Measures() []MeasureInfo { return db.Snapshot().Measures() }

// Measures reports the measure axis of this snapshot; see DB.Measures.
func (s *Snapshot) Measures() []MeasureInfo {
	out := make([]MeasureInfo, 0, len(core.AllMeasures()))
	for _, m := range core.AllMeasures() {
		out = append(out, MeasureInfo{
			Measure: m,
			Engines: s.engines.enginesFor(m),
			Default: m == MeasureTruss,
		})
	}
	return out
}

// EffectiveMeasure reports the measure a query's answer was computed
// under: the query's own Measure when set, else the engine's native
// definition — the single measure it serves, or truss (the multi-measure
// engines' default). Response labelers (the HTTP server, tsdsearch) use
// it so an explicitly pinned comp/kcore engine is not reported as
// answering with truss semantics.
func EffectiveMeasure(q Query, e Engine) Measure {
	if q.Measure != "" {
		return q.Measure.Normalize()
	}
	if ms := e.Measures(); len(ms) == 1 {
		return ms[0]
	}
	return MeasureTruss
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
	p, err := s.point(ctx, v, 0, m, true)
	if err != nil {
		return 0, err
	}
	return p.Score(v, 0), nil
}

// ContextsPFree returns SC(v) at v's discriminating level under measure
// m; see DB.ContextsPFree.
func (s *Snapshot) ContextsPFree(ctx context.Context, v int32, m Measure) ([][]int32, error) {
	p, err := s.point(ctx, v, 0, m, true)
	if err != nil {
		return nil, err
	}
	return p.Contexts(v, 0), nil
}

// ScoreMeasure returns score(v) at threshold k under measure m; see
// DB.ScoreMeasure.
func (s *Snapshot) ScoreMeasure(ctx context.Context, v, k int32, m Measure) (int, error) {
	p, err := s.point(ctx, v, k, m, false)
	if err != nil {
		return 0, err
	}
	return p.Score(v, k), nil
}

// ContextsMeasure returns SC(v) at threshold k under measure m; see
// DB.ContextsMeasure.
func (s *Snapshot) ContextsMeasure(ctx context.Context, v, k int32, m Measure) ([][]int32, error) {
	p, err := s.point(ctx, v, k, m, false)
	if err != nil {
		return nil, err
	}
	return p.Contexts(v, k), nil
}
