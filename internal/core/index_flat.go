package core

import (
	"fmt"

	"trussdiv/internal/graph"
)

// This file is the bridge between the in-memory index structures and the
// store's format-v3 flat slabs: each ragged per-vertex structure becomes a
// handful of flat arrays plus int64 offset tables, so the store can write
// them as fixed-width little-endian sections and a reader can reconstruct
// the index over zero-copy views of an mmap'd file. Reconstruction is O(n)
// slice-header surgery — no per-element decode — and the resulting index
// aliases the caller's arrays, which therefore must stay immutable (and
// mapped) for the life of the index.

// TSDFlat is the flat-slab form of a TSDIndex. ForestOff and CumOff have
// len n+1; vertex v's forest is Forest[ForestOff[v]:ForestOff[v+1]] and its
// cumulative vertex-trussness histogram is Cum[CumOff[v]:CumOff[v+1]].
type TSDFlat struct {
	Mv        []int32
	ForestOff []int64
	Forest    []TSDEdge
	CumOff    []int64
	Cum       []int32
}

// Flatten exports the index as flat slabs, each a fresh array: Mv is the
// pages of ego edge counts concatenated, and the ragged structures are
// concatenated vertex by vertex. Callers may serialize or keep the result
// without further copying.
func (idx *TSDIndex) Flatten() TSDFlat {
	n := idx.edges.n
	f := TSDFlat{
		Mv:        idx.mv.flat(),
		ForestOff: make([]int64, n+1),
		CumOff:    make([]int64, n+1),
	}
	var nf, nc int64
	for v := int32(0); int(v) < n; v++ {
		f.ForestOff[v] = nf
		f.CumOff[v] = nc
		nf += int64(len(idx.edges.at(v)))
		nc += int64(len(idx.vtCum.at(v)))
	}
	f.ForestOff[n], f.CumOff[n] = nf, nc
	f.Forest = make([]TSDEdge, 0, nf)
	f.Cum = make([]int32, 0, nc)
	for v := int32(0); int(v) < n; v++ {
		f.Forest = append(f.Forest, idx.edges.at(v)...)
		f.Cum = append(f.Cum, idx.vtCum.at(v)...)
	}
	return f
}

// NewTSDIndexFromFlat reconstructs a TSDIndex whose per-vertex slices alias
// the flat arrays in f, and whose pages of ego edge counts are cut out of
// f.Mv. Offset tables and per-vertex counts are validated structurally in
// O(n); element-level integrity is the storage layer's job (checksums).
// The arrays must stay immutable while the index is in use.
func NewTSDIndexFromFlat(g *graph.Graph, f TSDFlat) (*TSDIndex, error) {
	n := g.N()
	if len(f.Mv) != n || len(f.ForestOff) != n+1 || len(f.CumOff) != n+1 {
		return nil, fmt.Errorf("core: tsd flat: table lengths %d/%d/%d for %d vertices",
			len(f.Mv), len(f.ForestOff), len(f.CumOff), n)
	}
	// Tables that start at 0 and end at their array's length, and that
	// never decrease or overshoot the array on the way (checked per vertex
	// below, before each window is sliced), keep every window in range.
	if f.ForestOff[0] != 0 || f.CumOff[0] != 0 ||
		f.ForestOff[n] != int64(len(f.Forest)) || f.CumOff[n] != int64(len(f.Cum)) {
		return nil, fmt.Errorf("core: tsd flat: offsets span [%d,%d]/[%d,%d], want [0,%d]/[0,%d]",
			f.ForestOff[0], f.ForestOff[n], f.CumOff[0], f.CumOff[n], len(f.Forest), len(f.Cum))
	}
	idx := &TSDIndex{
		g:     g,
		edges: makePaged[[]TSDEdge](n),
		mv:    pagedOf(f.Mv),
		vtCum: makePaged[[]int32](n),
	}
	for v := 0; v < n; v++ {
		flo, fhi := f.ForestOff[v], f.ForestOff[v+1]
		clo, chi := f.CumOff[v], f.CumOff[v+1]
		if flo > fhi || clo > chi || fhi > f.ForestOff[n] || chi > f.CumOff[n] {
			return nil, fmt.Errorf("core: tsd flat: offsets out of order at vertex %d", v)
		}
		// A spanning forest of the ego-network has < deg(v) edges and the
		// histogram at most deg(v)+1 levels; larger counts mean corruption.
		deg := int64(g.Degree(int32(v)))
		if fhi-flo > deg || chi-clo > deg+2 {
			return nil, fmt.Errorf("core: tsd flat: vertex %d has %d forest edges / %d levels for degree %d",
				v, fhi-flo, chi-clo, deg)
		}
		if fhi > flo {
			idx.edges.set(int32(v), f.Forest[flo:fhi:fhi])
		}
		if chi > clo {
			idx.vtCum.set(int32(v), f.Cum[clo:chi:chi])
		}
	}
	return idx, nil
}

// GCTFlat is the flat-slab form of a GCTIndex. All *Off tables have len
// n+1. Bounds holds the per-vertex memberOff arrays back to back (each has
// one more entry than the vertex's supernode count, or zero entries for a
// vertex with no ego edges).
type GCTFlat struct {
	NodeOff   []int64
	NodeTau   []int32
	BoundOff  []int64
	Bounds    []int32
	MemberOff []int64
	Members   []int32
	EdgeOff   []int64
	Edges     []GCTSuperEdge
}

// Flatten exports the index as flat slabs.
func (idx *GCTIndex) Flatten() GCTFlat {
	n := idx.verts.n
	f := GCTFlat{
		NodeOff:   make([]int64, n+1),
		BoundOff:  make([]int64, n+1),
		MemberOff: make([]int64, n+1),
		EdgeOff:   make([]int64, n+1),
	}
	var nn, nb, nm, ne int64
	for v := int32(0); int(v) < n; v++ {
		gv := idx.verts.ref(v)
		f.NodeOff[v], f.BoundOff[v], f.MemberOff[v], f.EdgeOff[v] = nn, nb, nm, ne
		nn += int64(len(gv.nodeTau))
		nb += int64(len(gv.memberOff))
		nm += int64(len(gv.members))
		ne += int64(len(gv.edges))
	}
	f.NodeOff[n], f.BoundOff[n], f.MemberOff[n], f.EdgeOff[n] = nn, nb, nm, ne
	f.NodeTau = make([]int32, 0, nn)
	f.Bounds = make([]int32, 0, nb)
	f.Members = make([]int32, 0, nm)
	f.Edges = make([]GCTSuperEdge, 0, ne)
	for v := int32(0); int(v) < n; v++ {
		gv := idx.verts.ref(v)
		f.NodeTau = append(f.NodeTau, gv.nodeTau...)
		f.Bounds = append(f.Bounds, gv.memberOff...)
		f.Members = append(f.Members, gv.members...)
		f.Edges = append(f.Edges, gv.edges...)
	}
	return f
}

// NewGCTIndexFromFlat reconstructs a GCTIndex whose per-vertex slices alias
// the flat arrays in f, under the same contract as NewTSDIndexFromFlat.
// Offset tables are validated like NewTSDIndexFromFlat's; the values
// inside the arrays (supernode member lists, superedge endpoints, the
// interior member bounds) are not.
func NewGCTIndexFromFlat(g *graph.Graph, f GCTFlat) (*GCTIndex, error) {
	n := g.N()
	if len(f.NodeOff) != n+1 || len(f.BoundOff) != n+1 || len(f.MemberOff) != n+1 || len(f.EdgeOff) != n+1 {
		return nil, fmt.Errorf("core: gct flat: offset tables sized %d/%d/%d/%d for %d vertices",
			len(f.NodeOff), len(f.BoundOff), len(f.MemberOff), len(f.EdgeOff), n)
	}
	if f.NodeOff[0] != 0 || f.BoundOff[0] != 0 || f.MemberOff[0] != 0 || f.EdgeOff[0] != 0 ||
		f.NodeOff[n] != int64(len(f.NodeTau)) || f.BoundOff[n] != int64(len(f.Bounds)) ||
		f.MemberOff[n] != int64(len(f.Members)) || f.EdgeOff[n] != int64(len(f.Edges)) {
		return nil, fmt.Errorf("core: gct flat: offset tables do not span their arrays")
	}
	idx := &GCTIndex{g: g, verts: makePaged[gctVertex](n)}
	for v := 0; v < n; v++ {
		nlo, nhi := f.NodeOff[v], f.NodeOff[v+1]
		blo, bhi := f.BoundOff[v], f.BoundOff[v+1]
		mlo, mhi := f.MemberOff[v], f.MemberOff[v+1]
		elo, ehi := f.EdgeOff[v], f.EdgeOff[v+1]
		if nlo > nhi || blo > bhi || mlo > mhi || elo > ehi ||
			nhi > f.NodeOff[n] || bhi > f.BoundOff[n] || mhi > f.MemberOff[n] || ehi > f.EdgeOff[n] {
			return nil, fmt.Errorf("core: gct flat: offsets out of order at vertex %d", v)
		}
		nodes := nhi - nlo
		switch {
		case nodes == 0:
			if bhi != blo || mhi != mlo || ehi != elo {
				return nil, fmt.Errorf("core: gct flat: vertex %d has data but no supernodes", v)
			}
			continue
		case bhi-blo != nodes+1:
			return nil, fmt.Errorf("core: gct flat: vertex %d has %d member bounds for %d supernodes",
				v, bhi-blo, nodes)
		case int64(g.Degree(int32(v))) < nodes:
			return nil, fmt.Errorf("core: gct flat: vertex %d has %d supernodes for degree %d",
				v, nodes, g.Degree(int32(v)))
		}
		bounds := f.Bounds[blo:bhi:bhi]
		if bounds[0] != 0 || int64(bounds[nodes]) != mhi-mlo {
			return nil, fmt.Errorf("core: gct flat: vertex %d member bounds span [%d,%d], want [0,%d]",
				v, bounds[0], bounds[nodes], mhi-mlo)
		}
		gv := idx.verts.ref(int32(v))
		gv.nodeTau = f.NodeTau[nlo:nhi:nhi]
		gv.memberOff = bounds
		gv.members = f.Members[mlo:mhi:mhi]
		if ehi > elo {
			gv.edges = f.Edges[elo:ehi:ehi]
		}
	}
	return idx, nil
}
