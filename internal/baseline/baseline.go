// Package baseline implements the two structural diversity models the
// paper compares against (§7): the component-based model of Huang et
// al./Chang et al. [7, 21] and the core-based model of Huang et al. [20],
// plus random selection. Each model defines a per-vertex diversity score
// over the ego-network and supports the same top-r search interface as the
// truss-based searchers.
package baseline

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
)

// VertexScore pairs a vertex with a diversity score (mirrors core.VertexScore
// without importing it, keeping the baselines free-standing).
type VertexScore struct {
	V     int32
	Score int
}

// Model is a per-vertex structural diversity definition over ego-networks.
type Model interface {
	// Name identifies the model in reports ("Comp-Div", "Core-Div").
	Name() string
	// Score returns the structural diversity of v w.r.t. parameter k.
	Score(v int32, k int32) int
	// Contexts returns the social contexts of v as global vertex sets.
	Contexts(v int32, k int32) [][]int32
}

// The models lend ego-extraction scratches from a sync.Pool: a scratch
// carries an O(n) marker, which a fresh one per call would zero each time,
// and the pool keeps the models safe for concurrent use. Nothing a model
// returns aliases the scratch, so it goes back before the method returns.
func newScratch() any { return new(ego.Scratch) }

// CompDiv is the component-based model: each connected component of the
// ego-network with at least k vertices is one social context [7, 21].
// It is safe for concurrent use.
type CompDiv struct {
	g       *graph.Graph
	scratch sync.Pool
}

// NewCompDiv returns the component-based model over g.
func NewCompDiv(g *graph.Graph) *CompDiv {
	return &CompDiv{g: g, scratch: sync.Pool{New: newScratch}}
}

// Name implements Model.
func (c *CompDiv) Name() string { return "Comp-Div" }

// Score counts ego-network components of size >= k.
func (c *CompDiv) Score(v int32, k int32) int {
	return len(c.Contexts(v, k))
}

// Contexts returns the size->=k components of the ego-network.
func (c *CompDiv) Contexts(v int32, k int32) [][]int32 {
	s := c.scratch.Get().(*ego.Scratch)
	defer c.scratch.Put(s)
	net := ego.ExtractOneInto(s, c.g, v)
	if len(net.Verts) == 0 {
		return nil
	}
	labels, count := net.G.ConnectedComponents()
	groups := make([][]int32, count)
	for lv, lbl := range labels {
		groups[lbl] = append(groups[lbl], net.Verts[lv])
	}
	out := groups[:0]
	for _, grp := range groups {
		if int32(len(grp)) >= k {
			out = append(out, grp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// CoreDiv is the core-based model: each maximal connected k-core of the
// ego-network is one social context [20]. It is safe for concurrent use.
type CoreDiv struct {
	g       *graph.Graph
	scratch sync.Pool
}

// NewCoreDiv returns the core-based model over g.
func NewCoreDiv(g *graph.Graph) *CoreDiv {
	return &CoreDiv{g: g, scratch: sync.Pool{New: newScratch}}
}

// Name implements Model.
func (c *CoreDiv) Name() string { return "Core-Div" }

// Score counts the maximal connected k-cores of the ego-network.
func (c *CoreDiv) Score(v int32, k int32) int {
	s := c.scratch.Get().(*ego.Scratch)
	defer c.scratch.Put(s)
	net := ego.ExtractOneInto(s, c.g, v)
	if net.G.M() == 0 {
		return 0
	}
	core := kcore.Decompose(net.G)
	return kcore.CountComponents(net.G, core, k)
}

// Contexts returns the maximal connected k-cores as global vertex sets.
func (c *CoreDiv) Contexts(v int32, k int32) [][]int32 {
	s := c.scratch.Get().(*ego.Scratch)
	defer c.scratch.Put(s)
	net := ego.ExtractOneInto(s, c.g, v)
	if net.G.M() == 0 {
		return nil
	}
	core := kcore.Decompose(net.G)
	return new(kcore.Scratch).Components(net.G, core, k, net.Verts)
}

// TopR runs the generic online top-r search for any Model.
func TopR(m Model, n int, k int32, r int) ([]VertexScore, error) {
	return Search(context.Background(), m, n, k, r)
}

// Search is TopR with cancellation: every candidate costs one ego-network
// decomposition, so the context is polled before each score.
func Search(ctx context.Context, m Model, n int, k int32, r int) ([]VertexScore, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k = %d, must be >= 1", k)
	}
	if r < 1 {
		return nil, fmt.Errorf("baseline: r = %d, must be >= 1", r)
	}
	if r > n {
		r = n
	}
	all := make([]VertexScore, n)
	for v := 0; v < n; v++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		all[v] = VertexScore{V: int32(v), Score: m.Score(int32(v), k)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].V < all[j].V
	})
	return all[:r], nil
}

// Random returns r distinct vertices chosen uniformly at random — the
// Random selector of the effectiveness experiments (Exp-8).
func Random(n, r int, seed int64) []VertexScore {
	if r > n {
		r = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]VertexScore, r)
	for i := 0; i < r; i++ {
		out[i] = VertexScore{V: int32(perm[i])}
	}
	return out
}
