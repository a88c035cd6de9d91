// Package trussdiv is the public API of the truss-based structural
// diversity library, a from-scratch Go implementation of Huang, Huang &
// Xu, "Truss-based Structural Diversity Search in Large Graphs" (ICDE
// 2021 / arXiv:2007.05437).
//
// The structural diversity of a vertex v is the number of maximal
// connected k-trusses (social contexts) in v's ego-network; top-r search
// returns the r vertices with the highest diversity together with their
// contexts. Build a Graph, Open it as a DB, and query — the DB builds
// indexes lazily and routes each query to the cheapest engine:
//
//	b := trussdiv.NewBuilder(0)
//	b.AddEdge(0, 1) // ...
//	g := b.Build()
//
//	db, _ := trussdiv.Open(g)
//	res, stats, _ := db.TopR(ctx, trussdiv.NewQuery(4, 10, trussdiv.WithContexts()))
//
// The graph is mutable after Open: db.Apply installs an atomic batch of
// edge insertions/deletions as the next epoch-numbered snapshot, with
// the TSD and GCT indexes repaired incrementally (paper §5.3). Queries
// always run against one consistent snapshot — Result.Epoch names it,
// and db.Snapshot() pins one across applies:
//
//	epoch, _ := db.Apply(ctx, trussdiv.Updates{Insert: []trussdiv.Edge{{U: 1, V: 9}}})
//
// A query can be pinned to one of the eight engines with
// ViaEngine("gct"), or an engine fetched by name with db.Engine("tsd");
// every engine satisfies the context-aware Engine interface, which only
// searches. Point queries (db.Score, db.ScoreMeasure, db.ScorePFree and
// their Contexts twins) go through the DB. Indexes
// build lazily on first use, up front with db.Prepare, or load from a
// persistent index store (WithIndexDir). The DB is the only way to
// search: the pre-DB constructors (NewOnline, NewBound, NewTSD, NewGCT,
// BuildHybrid) have been removed — README.md's migration table maps each
// to its replacement.
//
// The diversity definition itself is a query axis: WithMeasure selects
// the paper's truss-based model (the default), the component-based
// model, or the core-based model, and the DB routes to the cheapest
// engine serving that measure — db.Measures() reports the matrix:
//
//	res, _, _ = db.TopR(ctx, trussdiv.NewQuery(4, 10,
//		trussdiv.WithMeasure(trussdiv.MeasureComponent)))
//
// See README.md for the engine catalogue and migration table and
// DESIGN.md for the paper-to-code mapping.
package trussdiv

import (
	"io"

	"trussdiv/internal/baseline"
	"trussdiv/internal/cascade"
	"trussdiv/internal/core"
	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// Graph is an immutable undirected simple graph with dense int32 vertex
// IDs and stable edge IDs.
type Graph = graph.Graph

// Edge is an undirected edge with canonical orientation U < V.
type Edge = graph.Edge

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a SNAP-format edge list, relabeling vertices to
// dense IDs; the returned slice maps dense ID back to the original label.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) { return graph.ReadEdgeList(r) }

// ReadBinaryGraph reads a graph written by Graph.WriteBinary.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// --- Scoring and search engines (the paper's contribution) ---

// VertexScore pairs a vertex with its structural diversity score.
type VertexScore = core.VertexScore

// Result is a top-r answer with the social contexts of each vertex.
type Result = core.Result

// Stats reports search effort (the paper's "search space" metric).
type Stats = core.Stats

// Scorer computes scores and social contexts online (Algorithm 2).
type Scorer = core.Scorer

// NewScorer returns a Scorer over g.
func NewScorer(g *Graph) *Scorer { return core.NewScorer(g) }

// UpdateStats reports the work of an incremental index update.
type UpdateStats = core.UpdateStats

// --- Truss decomposition substrate ---

// TrussDecompose returns tau[e], the trussness of every edge of g.
func TrussDecompose(g *Graph) []int32 { return truss.Decompose(g) }

// KTrussComponents returns the vertex sets of the maximal connected
// k-trusses of g, ordered by first vertex with members ascending; nil
// when no edge has trussness >= k.
func KTrussComponents(g *Graph, tau []int32, k int32) [][]int32 {
	return truss.Components(g, tau, k)
}

// --- Baseline diversity models ---

// DiversityModel is a per-vertex structural diversity definition.
type DiversityModel = baseline.Model

// NewCompDiv returns the component-based diversity model [7, 21].
func NewCompDiv(g *Graph) DiversityModel { return baseline.NewCompDiv(g) }

// NewCoreDiv returns the core-based diversity model [20].
func NewCoreDiv(g *Graph) DiversityModel { return baseline.NewCoreDiv(g) }

// --- Social contagion ---

// IC is an Independent Cascade process.
type IC = cascade.IC

// NewIC returns an Independent Cascade model with uniform arc
// probability p.
func NewIC(g *Graph, p float64) *IC { return cascade.NewIC(g, p) }

// LT is a Linear Threshold diffusion process.
type LT = cascade.LT

// NewLT returns a Linear Threshold model over g.
func NewLT(g *Graph) *LT { return cascade.NewLT(g) }

// MaxInfluenceRIS selects influential seed vertices by reverse influence
// sampling.
func MaxInfluenceRIS(g *Graph, p float64, count, samples int, seed int64) []int32 {
	return cascade.MaxInfluenceRIS(g, p, count, samples, seed)
}

// --- Synthetic graphs ---

// BarabasiAlbert returns a preferential-attachment power-law graph.
func BarabasiAlbert(n, attach int, seed int64) *Graph {
	return gen.BarabasiAlbert(n, attach, seed)
}

// OverlayConfig parameterizes CommunityOverlay.
type OverlayConfig = gen.OverlayConfig

// CommunityOverlay returns a power-law backbone overlaid with planted
// communities — the library's stand-in for real social networks.
func CommunityOverlay(cfg OverlayConfig) *Graph { return gen.CommunityOverlay(cfg) }

// PaperExampleGraph returns the 17-vertex running example of the paper's
// Figure 1 (the query vertex is PaperExampleV).
func PaperExampleGraph() *Graph { return gen.Fig1Graph() }

// PaperExampleV is the query vertex of the paper's running example.
const PaperExampleV = int32(0)
