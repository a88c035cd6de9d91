// Command tsdindex builds the search indexes of a graph offline and
// persists them to a versioned index store, so serving processes
// (tsdserve -indexdir, or any DB opened with WithIndexDir) warm start
// from disk instead of paying the truss-decomposition build cost on
// every boot.
//
// The store file (<out>/indexes.tdx) holds the global truss
// decomposition, the TSD and GCT indexes, and the hybrid engine's per-k
// rankings, fingerprinted against the exact graph they were built from;
// a reader refuses the file for any other graph and rebuilds instead.
// With -measures the file additionally carries the per-k rankings of the
// component and core diversity measures (measure-tagged sections), so a
// warm server answers every measure's top-r in O(r) — fixed-k, and
// k-less from the pfree row each table derives on first use.
//
// Usage:
//
//	tsdindex -dataset gowalla-sim -out idx/
//	tsdindex -input graph.txt -out /var/lib/tsd/indexes
//	tsdindex -input graph.txt -out idx/ -measures  # include component/core rankings
//	tsdindex -input graph.txt -out idx/ -verify    # validate an existing store
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"trussdiv"
	"trussdiv/internal/bench"
	"trussdiv/internal/graph"
	"trussdiv/internal/store"
)

func main() {
	var (
		input    = flag.String("input", "", "edge-list file (SNAP text format)")
		dataset  = flag.String("dataset", "", "built-in synthetic dataset name")
		out      = flag.String("out", ".", "directory the index store is written to")
		verify   = flag.Bool("verify", false, "validate the existing store against the graph instead of building")
		measures = flag.Bool("measures", false, "also build the component/core rankings (which serve parameter-free queries too) into the store")
	)
	flag.Parse()

	if err := run(*input, *dataset, *out, *verify, *measures); err != nil {
		fmt.Fprintln(os.Stderr, "tsdindex:", err)
		os.Exit(1)
	}
}

func run(input, dataset, out string, verify, measures bool) error {
	g, err := loadGraph(input, dataset)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())
	if verify {
		return verifyStore(store.PathIn(out), g)
	}

	db, err := trussdiv.Open(g, trussdiv.WithIndexDir(out))
	if err != nil {
		return err
	}
	if st := db.StoreStatus(); st.Warm {
		fmt.Printf("existing store %s is valid (sections: %v); refreshing\n", st.Path, st.Sections)
	} else if st.LoadErr != nil {
		fmt.Printf("existing store rejected (%v); rebuilding\n", st.LoadErr)
	}

	// One Prepare call builds everything inside a single deferred persist,
	// so the store file is serialized once, not once per Prepare.
	names := []string(nil) // default set: bound, tsd, gct, hybrid
	if measures {
		// Plus the native measure engines' per-k rankings, landing in the
		// same file as measure-tagged sections; pfree needs no section of
		// its own (it reads every measure's table).
		names = []string{"bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"}
	}
	start := time.Now()
	if err := db.Prepare(context.Background(), names...); err != nil {
		return err
	}
	prepared := time.Since(start)
	path, err := db.SaveIndexes()
	if err != nil {
		return err
	}

	st := db.StoreStatus()
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	idx := db.IndexStats()
	fmt.Printf("prepared in %v (build %v, load %v)\n",
		prepared.Round(time.Millisecond), idx.BuildTime.Round(time.Millisecond),
		idx.LoadTime.Round(time.Millisecond))
	fmt.Printf("wrote %s (format v%d): %d bytes, sections %v\n", path, st.FormatVersion, info.Size(), st.Sections)
	return nil
}

// verifyStore checks an existing index file end to end: header (magic,
// version, fingerprint), the full per-section CRC pass mmap mode defers at
// open (VerifySections, run over the mapping when the platform supports
// it), and a checksummed decode of every section.
func verifyStore(path string, g *graph.Graph) error {
	f, err := store.OpenFile(path, g)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	mode, sections := f.Mode(), f.Sections()
	crcErr := f.VerifySections()
	f.Close()
	if crcErr != nil {
		return fmt.Errorf("verify %s: %w", path, crcErr)
	}
	if _, err := store.ReadAll(path, g); err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	fmt.Printf("%s: valid (mode %s, sections: %v)\n", path, mode, sections)
	return nil
}

func loadGraph(input, dataset string) (*graph.Graph, error) {
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
		return bench.Load(dataset)
	default:
		return nil, fmt.Errorf("need -input FILE or -dataset NAME (known: %v)", bench.DatasetNames())
	}
}
