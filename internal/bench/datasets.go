// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§7) on seeded synthetic substitutes of
// the SNAP/DBLP datasets (see DESIGN.md §3 for the substitution rationale).
//
// Each experiment prints rows/series shaped like the paper's artifact; the
// reproduction target is the qualitative shape (who wins, by what ratio,
// where crossovers fall), not absolute times.
package bench

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
)

// Dataset is a named synthetic substitute for one of the paper's networks.
type Dataset struct {
	Name      string // our name
	PaperName string // the network it stands in for (Table 1)
	Tier      int    // 1 = small/fast, 2 = large (skipped in -quick mode)
	Build     func() *graph.Graph
}

// registry mirrors the paper's Table 1 line-up at laptop scale. Overlay
// parameters are tuned so the small networks have maximum trussness in the
// teens and socfb-sim stays truss-poor (socfb-konect has τ*_G = 7).
var registry = []Dataset{
	{"wiki-sim", "Wiki-Vote", 1, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 4000, Attach: 5, Cliques: 700, MinSize: 4, MaxSize: 14, Window: 120, AnchorBias: 0.5, Diffuse: 80, Seed: 101,
		})
	}},
	{"enron-sim", "Email-Enron", 1, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 8000, Attach: 4, Cliques: 1200, MinSize: 4, MaxSize: 12, Window: 150, AnchorBias: 0.5, Diffuse: 160, Seed: 102,
		})
	}},
	{"epinions-sim", "Epinions", 1, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 15000, Attach: 5, Cliques: 2000, MinSize: 4, MaxSize: 16, Window: 200, AnchorBias: 0.5, Diffuse: 300, Seed: 103,
		})
	}},
	{"gowalla-sim", "Gowalla", 1, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 25000, Attach: 4, Cliques: 3000, MinSize: 4, MaxSize: 14, Window: 250, AnchorBias: 0.5, Diffuse: 500, Seed: 104,
		})
	}},
	{"notredame-sim", "NotreDame", 2, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 40000, Attach: 3, Cliques: 5000, MinSize: 4, MaxSize: 18, Window: 300, AnchorBias: 0.5, Diffuse: 600, Seed: 105,
		})
	}},
	{"livejournal-sim", "LiveJournal", 2, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 60000, Attach: 5, Cliques: 8000, MinSize: 4, MaxSize: 20, Window: 400, AnchorBias: 0.5, Diffuse: 800, Seed: 106,
		})
	}},
	{"socfb-sim", "socfb-konect", 2, func() *graph.Graph {
		// Pure preferential attachment: few triangles, shallow trussness,
		// mirroring socfb-konect's τ*_G = 7 despite its size.
		return gen.BarabasiAlbert(100000, 3, 107)
	}},
	{"orkut-sim", "Orkut", 2, func() *graph.Graph {
		return gen.CommunityOverlay(gen.OverlayConfig{
			N: 50000, Attach: 8, Cliques: 9000, MinSize: 4, MaxSize: 18, Window: 350, AnchorBias: 0.5, Diffuse: 600, Seed: 108,
		})
	}},
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.Graph{}
)

// Datasets returns the registered datasets up to the given tier (1 = small
// only, 2 = all).
func Datasets(maxTier int) []Dataset {
	var out []Dataset
	for _, d := range registry {
		if d.Tier <= maxTier {
			out = append(out, d)
		}
	}
	return out
}

// DatasetNames lists registered dataset names in registry order.
func DatasetNames() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Name
	}
	return names
}

// Load builds (or returns the cached) graph for a dataset name.
func Load(name string) (*graph.Graph, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[name]; ok {
		return g, nil
	}
	for _, d := range registry {
		if d.Name == name {
			g := d.Build()
			cache[name] = g
			return g, nil
		}
	}
	known := DatasetNames()
	sort.Strings(known)
	return nil, fmt.Errorf("bench: unknown dataset %q (known: %v)", name, known)
}

// LoadGraph is the graph input of the command-line tools: an edge-list
// file (input) or a registered dataset (dataset), exactly one of them.
func LoadGraph(input, dataset string) (*graph.Graph, error) {
	switch {
	case input != "" && dataset != "":
		return nil, fmt.Errorf("give either -input or -dataset, not both")
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err := graph.ReadEdgeList(f)
		return g, err
	case dataset != "":
		return Load(dataset)
	default:
		return nil, fmt.Errorf("need -input FILE or -dataset NAME (known: %v)", DatasetNames())
	}
}

// MustLoad is Load for the harness's own experiments, which only reference
// registered names.
func MustLoad(name string) *graph.Graph {
	g, err := Load(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Collab returns the cached DBLP-substitute collaboration network used by
// the case study (Exp-10/11/12).
func Collab() *graph.Graph {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	const key = "dblp-sim"
	if g, ok := cache[key]; ok {
		return g
	}
	g := gen.Collaboration(gen.DefaultCollabConfig())
	cache[key] = g
	return g
}
