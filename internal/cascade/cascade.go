// Package cascade implements the social-contagion machinery of the paper's
// effectiveness experiments (§7.2): the Independent Cascade (IC) model with
// uniform edge probabilities, Monte-Carlo estimation of activation
// probabilities and activation latency, and influence maximization for
// seed selection.
//
// The paper seeds its simulations with the IMM algorithm [37]; we
// substitute reverse-influence-sampling (RIS) greedy coverage — the
// technique IMM refines — plus a degree-discount heuristic for very large
// graphs. Undirected edges are treated as two independent directed arcs of
// the same probability, exactly as the paper describes.
package cascade

import (
	"math/rand"
	"sort"

	"trussdiv/internal/graph"
)

// IC is an Independent Cascade process over g with uniform activation
// probability P per directed arc.
type IC struct {
	g *graph.Graph
	p float64
}

// NewIC returns an IC model (paper default p = 0.01; the case study's
// Table 5 uses p = 0.05).
func NewIC(g *graph.Graph, p float64) *IC { return &IC{g: g, p: p} }

// Graph returns the underlying graph.
func (ic *IC) Graph() *graph.Graph { return ic.g }

// Outcome is one simulated cascade. Round[v] is the BFS round at which v
// activated (0 for seeds, -1 for never).
type Outcome struct {
	Round []int32
	Count int // number of activated vertices including seeds
}

// Activated reports whether v was activated in this outcome.
func (o *Outcome) Activated(v int32) bool { return o.Round[v] >= 0 }

// Simulate runs one cascade from the given seeds using rng.
func (ic *IC) Simulate(seeds []int32, rng *rand.Rand) *Outcome {
	n := ic.g.N()
	round := make([]int32, n)
	for i := range round {
		round[i] = -1
	}
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if round[s] < 0 {
			round[s] = 0
			frontier = append(frontier, s)
		}
	}
	count := len(frontier)
	next := make([]int32, 0, 64)
	for r := int32(1); len(frontier) > 0; r++ {
		next = next[:0]
		for _, u := range frontier {
			for _, w := range ic.g.Neighbors(u) {
				if round[w] < 0 && rng.Float64() < ic.p {
					round[w] = r
					next = append(next, w)
					count++
				}
			}
		}
		frontier, next = next, frontier
	}
	return &Outcome{Round: round, Count: count}
}

// MonteCarlo aggregates `runs` simulations.
type MonteCarlo struct {
	Runs       int
	Activation []float64 // per-vertex activation probability
	MeanRound  []float64 // mean activation round, conditioned on activation
	MeanSpread float64   // mean number of activated vertices
}

// MonteCarlo estimates activation statistics over runs cascades seeded by
// seeds, deterministically from seed.
func (ic *IC) MonteCarlo(seeds []int32, runs int, seed int64) *MonteCarlo {
	n := ic.g.N()
	rng := rand.New(rand.NewSource(seed))
	hits := make([]int64, n)
	roundSum := make([]int64, n)
	var spread int64
	for run := 0; run < runs; run++ {
		out := ic.Simulate(seeds, rng)
		spread += int64(out.Count)
		for v := 0; v < n; v++ {
			if out.Round[v] >= 0 {
				hits[v]++
				roundSum[v] += int64(out.Round[v])
			}
		}
	}
	mc := &MonteCarlo{
		Runs:       runs,
		Activation: make([]float64, n),
		MeanRound:  make([]float64, n),
		MeanSpread: float64(spread) / float64(runs),
	}
	for v := 0; v < n; v++ {
		if hits[v] > 0 {
			mc.Activation[v] = float64(hits[v]) / float64(runs)
			mc.MeanRound[v] = float64(roundSum[v]) / float64(hits[v])
		}
	}
	return mc
}

// ExpectedActivated returns the expected number of targets activated:
// the sum of activation probabilities over the target set (paper Fig. 14's
// y-axis for a top-r result list).
func (mc *MonteCarlo) ExpectedActivated(targets []int32) float64 {
	var sum float64
	for _, v := range targets {
		sum += mc.Activation[v]
	}
	return sum
}

// LatencyCurve returns, for the given targets, the expected cumulative
// number of targets activated by each round: curve[r] = Σ_t P[t active and
// round(t) <= r]. This reproduces paper Fig. 15's latency plot (rounds on
// one axis, activated count on the other).
func (ic *IC) LatencyCurve(seeds, targets []int32, runs int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	maxRound := 0
	perRun := make([][]int32, 0, runs)
	for run := 0; run < runs; run++ {
		out := ic.Simulate(seeds, rng)
		rounds := make([]int32, len(targets))
		for i, tv := range targets {
			rounds[i] = out.Round[tv]
			if int(rounds[i]) > maxRound {
				maxRound = int(rounds[i])
			}
		}
		perRun = append(perRun, rounds)
	}
	curve := make([]float64, maxRound+1)
	for _, rounds := range perRun {
		for _, rd := range rounds {
			if rd >= 0 {
				curve[rd]++
			}
		}
	}
	// Prefix-sum to cumulative, then normalize by runs.
	for r := 1; r <= maxRound; r++ {
		curve[r] += curve[r-1]
	}
	for r := range curve {
		curve[r] /= float64(runs)
	}
	return curve
}

// MaxInfluenceRIS selects `count` seeds by reverse influence sampling:
// generate `samples` random reverse-reachable sets and greedily pick the
// vertices covering the most sets. This approximates IMM [37] without its
// martingale stopping rule; for undirected IC the reverse process equals
// the forward one.
func MaxInfluenceRIS(g *graph.Graph, p float64, count, samples int, seed int64) []int32 {
	n := g.N()
	if count > n {
		count = n
	}
	rng := rand.New(rand.NewSource(seed))
	ic := NewIC(g, p)
	coverage := make([][]int32, n) // vertex -> RR-set IDs containing it
	for s := 0; s < samples; s++ {
		root := int32(rng.Intn(n))
		out := ic.Simulate([]int32{root}, rng)
		for v := 0; v < n; v++ {
			if out.Round[v] >= 0 {
				coverage[v] = append(coverage[v], int32(s))
			}
		}
	}
	covered := make([]bool, samples)
	chosen := make([]int32, 0, count)
	inAnswer := make([]bool, n)
	for len(chosen) < count {
		best, bestGain := int32(-1), -1
		for v := 0; v < n; v++ {
			if inAnswer[v] {
				continue
			}
			gain := 0
			for _, sid := range coverage[v] {
				if !covered[sid] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = int32(v), gain
			}
		}
		chosen = append(chosen, best)
		inAnswer[best] = true
		for _, sid := range coverage[best] {
			covered[sid] = true
		}
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i] < chosen[j] })
	return chosen
}
