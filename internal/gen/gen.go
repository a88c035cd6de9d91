// Package gen generates the synthetic graphs used throughout the
// reproduction. The paper (§7) evaluates on eight SNAP social networks, a
// DBLP collaboration network, and a series of power-law graphs from the
// PythonWeb generator; none of those are redistributable here, so this
// package provides seeded generators whose outputs match the *structural
// properties* the algorithms are sensitive to: heavy-tailed degrees,
// triangle-rich communities, and a power-law edge-trussness distribution
// (paper Fig. 3).
//
// Every generator is deterministic given its seed.
package gen

import (
	"math"
	"math/rand"

	"trussdiv/internal/graph"
)

// BarabasiAlbert returns a preferential-attachment power-law graph with n
// vertices where each arriving vertex attaches to `attach` existing
// vertices. This is the substitute for the PythonWeb power-law generator
// used in the paper's scalability experiment (Fig. 12).
func BarabasiAlbert(n, attach int, seed int64) *graph.Graph {
	if attach < 1 {
		attach = 1
	}
	if n < attach+1 {
		n = attach + 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// Seed clique of attach+1 vertices.
	for u := 0; u <= attach; u++ {
		for v := u + 1; v <= attach; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	// repeated holds one entry per endpoint, so sampling uniformly from it
	// is degree-proportional sampling.
	repeated := make([]int32, 0, 2*attach*n)
	for u := 0; u <= attach; u++ {
		for i := 0; i < attach; i++ {
			repeated = append(repeated, int32(u))
		}
	}
	// Picks are kept in selection order (the map only deduplicates):
	// iterating the map here would feed Go's randomized map order back
	// into `repeated`, making the graph differ across processes despite
	// the fixed seed — which breaks anything fingerprinting the output,
	// like the index store.
	targets := make(map[int32]struct{}, attach)
	picked := make([]int32, 0, attach)
	for v := attach + 1; v < n; v++ {
		clear(targets)
		picked = picked[:0]
		for len(picked) < attach {
			u := repeated[rng.Intn(len(repeated))]
			if _, dup := targets[u]; dup {
				continue
			}
			targets[u] = struct{}{}
			picked = append(picked, u)
		}
		for _, u := range picked {
			b.AddEdge(int32(v), u)
			repeated = append(repeated, u, int32(v))
		}
	}
	return b.Build()
}

// ErdosRenyiGNM returns a uniform random graph with n vertices and m
// distinct edges (or the maximum possible if m exceeds it).
func ErdosRenyiGNM(n, m int, seed int64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	for len(seen) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)<<32 | int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RMAT returns a recursive-matrix power-law graph with 2^scale vertices and
// approximately edgeFactor * 2^scale edges (duplicates collapse). The
// quadrant probabilities follow the classic Graph500 parameters.
func RMAT(scale, edgeFactor int, seed int64) *graph.Graph {
	const a, b, c = 0.57, 0.19, 0.19 // d = 0.05
	n := 1 << uint(scale)
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: nothing set
			case r < a+b:
				v |= 1 << uint(bit)
			case r < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		bld.AddEdge(int32(u), int32(v))
	}
	return bld.Build()
}

// OverlayConfig parameterizes CommunityOverlay.
type OverlayConfig struct {
	N          int     // vertex count
	Attach     int     // Barabási–Albert attachment for the backbone
	Cliques    int     // number of planted cliques
	MinSize    int     // minimum clique size (>= 3)
	MaxSize    int     // maximum clique size
	Window     int     // clique members are drawn from a random window this wide
	AnchorBias float64 // fraction of cliques anchored on a degree-biased hub
	Diffuse    int     // vertices given sparse chain-shaped ego components
	Chains     int     // chains per diffuse vertex (default 6)
	ChainLen   int     // vertices per chain (default 5)
	Seed       int64   // RNG seed
}

// CommunityOverlay returns a Barabási–Albert backbone overlaid with planted
// cliques whose sizes follow a heavy-tailed distribution. This is the
// substitute for the SNAP social networks: the backbone gives the power-law
// degree distribution and the clique overlay gives the triangle-rich,
// power-law edge-trussness profile (paper Fig. 3) that truss decomposition
// and structural-diversity search exercise.
func CommunityOverlay(cfg OverlayConfig) *graph.Graph {
	if cfg.MinSize < 3 {
		cfg.MinSize = 3
	}
	if cfg.MaxSize < cfg.MinSize {
		cfg.MaxSize = cfg.MinSize
	}
	if cfg.Window < cfg.MaxSize {
		cfg.Window = cfg.MaxSize * 4
	}
	backbone := BarabasiAlbert(cfg.N, cfg.Attach, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	b := graph.NewBuilder(cfg.N)
	for _, e := range backbone.Edges() {
		b.AddEdge(e.U, e.V)
	}
	// Degree-proportional anchor sampling: one entry per backbone edge
	// endpoint. Real social networks concentrate community memberships on
	// hubs; anchored cliques reproduce that, which is what gives the top
	// truss-diversity scores their long tail (paper Fig. 13 intervals).
	anchors := make([]int32, 0, 2*backbone.M())
	for _, e := range backbone.Edges() {
		anchors = append(anchors, e.U, e.V)
	}
	members := make([]int32, 0, cfg.MaxSize)
	for c := 0; c < cfg.Cliques; c++ {
		// Cube a uniform sample so small cliques dominate and large ones
		// form a heavy tail, mirroring the trussness histogram's shape.
		u := rng.Float64()
		size := cfg.MinSize + int(float64(cfg.MaxSize-cfg.MinSize+1)*u*u*u)
		if size > cfg.MaxSize {
			size = cfg.MaxSize
		}
		members = members[:0]
		seen := map[int32]struct{}{}
		base := rng.Intn(cfg.N)
		if cfg.AnchorBias > 0 && rng.Float64() < cfg.AnchorBias {
			// The anchor joins a community placed elsewhere in the graph,
			// so a hub's communities stay distinct in its ego-network.
			anchor := anchors[rng.Intn(len(anchors))]
			seen[anchor] = struct{}{}
			members = append(members, anchor)
		}
		for len(members) < size {
			v := int32((base + rng.Intn(cfg.Window)) % cfg.N)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			members = append(members, v)
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b.AddEdge(members[i], members[j])
			}
		}
	}
	// Diffuse vertices: sparse chain-shaped ego components. Real social
	// networks are full of users whose neighborhoods fragment into sizable
	// but loosely-knit pieces; these give the component-based diversity
	// model high scores without any dense (trussed) structure, which is
	// exactly the contrast the paper's effectiveness experiments probe.
	if cfg.Chains <= 0 {
		cfg.Chains = 6
	}
	if cfg.ChainLen <= 1 {
		cfg.ChainLen = 5
	}
	for d := 0; d < cfg.Diffuse; d++ {
		center := int32(rng.Intn(cfg.N))
		for c := 0; c < cfg.Chains; c++ {
			prev := int32(-1)
			for l := 0; l < cfg.ChainLen; l++ {
				w := int32(rng.Intn(cfg.N))
				if w == center {
					continue
				}
				b.AddEdge(center, w)
				if prev >= 0 && prev != w {
					b.AddEdge(prev, w)
				}
				prev = w
			}
		}
	}
	return b.Build()
}

// PowerLawDegreeExponent estimates the degree-distribution exponent of g by
// a log-log least-squares fit over degrees >= 2. It exists so tests can
// assert the generators actually produce heavy-tailed graphs.
func PowerLawDegreeExponent(g *graph.Graph) float64 {
	counts := map[int]int{}
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(int32(v)); d >= 2 {
			counts[d]++
		}
	}
	var sx, sy, sxx, sxy float64
	var k int
	for d, c := range counts {
		x := math.Log(float64(d))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		k++
	}
	if k < 2 {
		return 0
	}
	fk := float64(k)
	slope := (fk*sxy - sx*sy) / (fk*sxx - sx*sx)
	return -slope
}
