package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"trussdiv/internal/core"
	"trussdiv/internal/graph"
)

// Format v3 section payloads are "slabs": sequences of fixed-width
// little-endian arrays, each starting on an 8-byte boundary relative to the
// payload start. The writer places every payload 8-byte aligned in the
// file, and decode mode reads each payload into an 8-byte-aligned buffer,
// so slab alignment composes with buffer alignment in both read modes and
// the reader views every array in place as []int32/[]int64/[]struct-of-
// int32 with no decode.
//
// The element types viewed in place are pinned to their on-disk width at
// compile time; a struct gaining padding or a field would silently corrupt
// the format otherwise.
const (
	_ = uint(unsafe.Sizeof(core.TSDEdge{}) - 12)
	_ = uint(12 - unsafe.Sizeof(core.TSDEdge{}))
	_ = uint(unsafe.Sizeof(core.GCTSuperEdge{}) - 12)
	_ = uint(12 - unsafe.Sizeof(core.GCTSuperEdge{}))
	_ = uint(unsafe.Sizeof(graph.Edge{}) - 8)
	_ = uint(8 - unsafe.Sizeof(graph.Edge{}))
)

// hostLittleEndian gates the in-place views: on a big-endian host the raw
// bytes do not match the in-memory representation, so every array is
// decoded into a fresh copy instead.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(n int) int { return (n + 7) &^ 7 }

// --- slab writer ---

type slabW struct{ buf []byte }

func (s *slabW) pad8() {
	for len(s.buf)%8 != 0 {
		s.buf = append(s.buf, 0)
	}
}

func (s *slabW) u64(v uint64) {
	s.pad8()
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

func (s *slabW) i64s(vs []int64) {
	s.pad8()
	for _, v := range vs {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(v))
	}
}

func (s *slabW) i32s(vs []int32) {
	s.pad8()
	for _, v := range vs {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(v))
	}
}

func (s *slabW) tsdEdges(vs []core.TSDEdge) {
	s.pad8()
	for _, e := range vs {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.U))
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.W))
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.T))
	}
}

func (s *slabW) gctEdges(vs []core.GCTSuperEdge) {
	s.pad8()
	for _, e := range vs {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.A))
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.B))
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.W))
	}
}

func (s *slabW) edges(vs []graph.Edge) {
	s.pad8()
	for _, e := range vs {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.U))
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(e.V))
	}
}

// encodeInt32s is the payload of a bare per-edge int32 section (tau,
// supports).
func encodeInt32s(vs []int32) []byte {
	var s slabW
	s.i32s(vs)
	return s.buf
}

// --- slab reader ---

// slabR walks a slab payload mirroring the writer's layout; its arrays
// alias the payload, which must be 8-byte aligned. Errors latch: after the
// first failure every reader returns nil.
type slabR struct {
	sec Section
	b   []byte
	pos int
	err error
}

func (r *slabR) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &CorruptError{Section: r.sec, Reason: fmt.Sprintf(format, args...)}
	}
}

// window aligns to 8, bounds-checks an upcoming array of count elements of
// elemSize bytes, and returns its byte window (nil after any error). The
// check runs before any allocation, so corrupt counts cannot balloon memory.
func (r *slabR) window(count, elemSize int) []byte {
	if r.err != nil {
		return nil
	}
	r.pos = align8(r.pos)
	if count < 0 || count > (len(r.b)-min(r.pos, len(r.b)))/elemSize || r.pos > len(r.b) {
		r.fail("array of %d x %d bytes exceeds payload (%d of %d bytes consumed)",
			count, elemSize, r.pos, len(r.b))
		return nil
	}
	w := r.b[r.pos : r.pos+count*elemSize]
	r.pos += count * elemSize
	return w
}

func (r *slabR) u64() uint64 {
	w := r.window(1, 8)
	if w == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(w)
}

// count reads a u64 element count and rejects values that cannot index a
// slice on this platform.
func (r *slabR) count() int {
	v := r.u64()
	if v > math.MaxInt32 && uint64(int(v)) != v {
		r.fail("implausible element count %d", v)
		return 0
	}
	return int(v)
}

// i32Array reads the next array of count T, where T is int32 or a struct
// of int32 fields (every record type the slabs hold), as a view of the
// payload — or, on a big-endian host, of its decoded int32 words.
func i32Array[T any](r *slabR, count int) []T {
	w := r.window(count, int(unsafe.Sizeof(*new(T))))
	if len(w) == 0 {
		return nil
	}
	p := unsafe.Pointer(&w[0])
	if !hostLittleEndian {
		words := make([]int32, len(w)/4)
		for i := range words {
			words[i] = int32(binary.LittleEndian.Uint32(w[4*i:]))
		}
		p = unsafe.Pointer(&words[0])
	}
	return unsafe.Slice((*T)(p), count)
}

// i64s reads the next array of count int64 (the offset tables), viewed in
// place like i32Array.
func (r *slabR) i64s(count int) []int64 {
	w := r.window(count, 8)
	if len(w) == 0 {
		return nil
	}
	if !hostLittleEndian {
		out := make([]int64, count)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(w[8*i:]))
		}
		return out
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&w[0])), count)
}

// done reports any latched error; trailing bytes beyond the final array
// (at most the writer's 8-byte padding) are tolerated.
func (r *slabR) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b)-r.pos >= 8 {
		return &CorruptError{Section: r.sec,
			Reason: fmt.Sprintf("%d trailing bytes", len(r.b)-r.pos)}
	}
	return nil
}

// --- TSD slab: n, nForest, nCum, mv[n], foff[n+1], forest[nForest],
//     coff[n+1], cum[nCum] ---

func encodeTSDSlab(idx *core.TSDIndex) []byte {
	f := idx.Flatten()
	var s slabW
	s.u64(uint64(len(f.Mv)))
	s.u64(uint64(len(f.Forest)))
	s.u64(uint64(len(f.Cum)))
	s.i32s(f.Mv)
	s.i64s(f.ForestOff)
	s.tsdEdges(f.Forest)
	s.i64s(f.CumOff)
	s.i32s(f.Cum)
	return s.buf
}

func decodeTSDSlab(payload []byte, g *graph.Graph) (*core.TSDIndex, error) {
	r := &slabR{sec: SecTSD, b: payload}
	n, nForest, nCum := r.count(), r.count(), r.count()
	var f core.TSDFlat
	f.Mv = i32Array[int32](r, n)
	f.ForestOff = r.i64s(n + 1)
	f.Forest = i32Array[core.TSDEdge](r, nForest)
	f.CumOff = r.i64s(n + 1)
	f.Cum = i32Array[int32](r, nCum)
	if err := r.done(); err != nil {
		return nil, err
	}
	idx, err := core.NewTSDIndexFromFlat(g, f)
	if err != nil {
		return nil, &CorruptError{Section: SecTSD, Reason: "structure does not describe the graph", Err: err}
	}
	return idx, nil
}

// --- GCT slab: n, nNode, nBound, nMember, nEdge, noff[n+1], nodeTau[nNode],
//     boff[n+1], bounds[nBound], moff[n+1], members[nMember], eoff[n+1],
//     edges[nEdge], edgeW[nEdge] ---

func encodeGCTSlab(idx *core.GCTIndex) []byte {
	f := idx.Flatten()
	var s slabW
	s.u64(uint64(len(f.NodeOff) - 1))
	s.u64(uint64(len(f.NodeTau)))
	s.u64(uint64(len(f.Bounds)))
	s.u64(uint64(len(f.Members)))
	s.u64(uint64(len(f.Edges)))
	s.i64s(f.NodeOff)
	s.i32s(f.NodeTau)
	s.i64s(f.BoundOff)
	s.i32s(f.Bounds)
	s.i64s(f.MemberOff)
	s.i32s(f.Members)
	s.i64s(f.EdgeOff)
	s.gctEdges(f.Edges)
	s.i32s(f.EdgeW)
	return s.buf
}

func decodeGCTSlab(payload []byte, g *graph.Graph) (*core.GCTIndex, error) {
	r := &slabR{sec: SecGCT, b: payload}
	n, nNode, nBound, nMember, nEdge := r.count(), r.count(), r.count(), r.count(), r.count()
	var f core.GCTFlat
	f.NodeOff = r.i64s(n + 1)
	f.NodeTau = i32Array[int32](r, nNode)
	f.BoundOff = r.i64s(n + 1)
	f.Bounds = i32Array[int32](r, nBound)
	f.MemberOff = r.i64s(n + 1)
	f.Members = i32Array[int32](r, nMember)
	f.EdgeOff = r.i64s(n + 1)
	f.Edges = i32Array[core.GCTSuperEdge](r, nEdge)
	f.EdgeW = i32Array[int32](r, nEdge)
	if err := r.done(); err != nil {
		return nil, err
	}
	idx, err := core.NewGCTIndexFromFlat(g, f)
	if err != nil {
		return nil, &CorruptError{Section: SecGCT, Reason: "structure does not describe the graph", Err: err}
	}
	return idx, nil
}

// --- rankings slab: maxK, koff[maxK+2], pairs[2*nPairs] (interleaved
//     vertex, score) ---
//
// Rankings are the one section that cannot be served in place:
// core.VertexScore holds a platform-width score, so both modes widen the
// viewed int32 pairs into fresh []core.VertexScore in one pass.

func encodeRankingsSlab(perK [][]core.VertexScore, n int) ([]byte, error) {
	maxK := len(perK) - 1
	if maxK < 2 {
		maxK = 2
	}
	koff := make([]int64, maxK+2)
	var total int64
	for k := 0; k <= maxK; k++ {
		koff[k] = total
		if k >= 2 && k < len(perK) {
			if len(perK[k]) > n {
				return nil, fmt.Errorf("store: ranking for k=%d has %d entries, graph has %d vertices",
					k, len(perK[k]), n)
			}
			total += int64(len(perK[k]))
		}
	}
	koff[maxK+1] = total
	pairs := make([]int32, 0, 2*total)
	for k := 2; k <= maxK && k < len(perK); k++ {
		for _, e := range perK[k] {
			pairs = append(pairs, e.V, int32(e.Score))
		}
	}
	var s slabW
	s.u64(uint64(maxK))
	s.i64s(koff)
	s.i32s(pairs)
	return s.buf, nil
}

func decodeRankingsSlab(payload []byte, n int) ([][]core.VertexScore, error) {
	r := &slabR{sec: SecRankings, b: payload}
	maxK := r.count()
	if r.err == nil && (maxK < 2 || maxK > n+2) {
		r.fail("implausible maxK %d for %d vertices", maxK, n)
	}
	var koff []int64
	if r.err == nil {
		koff = r.i64s(maxK + 2)
	}
	if r.err != nil {
		return nil, r.err
	}
	total := koff[maxK+1]
	pairs := i32Array[int32](r, 2*int(total))
	if err := r.done(); err != nil {
		return nil, err
	}
	perK := make([][]core.VertexScore, maxK+1)
	for k := 2; k <= maxK; k++ {
		lo, hi := koff[k], koff[k+1]
		if lo < 0 || lo > hi || hi > total || hi-lo > int64(n) {
			return nil, &CorruptError{Section: SecRankings,
				Reason: fmt.Sprintf("ranking k=%d spans [%d,%d] for %d vertices", k, lo, hi, n)}
		}
		if lo == hi {
			continue
		}
		list := make([]core.VertexScore, hi-lo)
		for i := range list {
			v := pairs[2*(lo+int64(i))]
			if v < 0 || int(v) >= n {
				return nil, &CorruptError{Section: SecRankings,
					Reason: fmt.Sprintf("ranking k=%d entry %d: vertex %d out of range", k, i, v)}
			}
			list[i] = core.VertexScore{V: v, Score: int(pairs[2*(lo+int64(i))+1])}
		}
		perK[k] = list
	}
	return perK, nil
}

// --- graph slab: n, m, off[n+1], adj[2m], eid[2m], edges[m] ---

func encodeGraphSlab(g *graph.Graph) []byte {
	off, adj, eid, edges := g.CSR()
	var s slabW
	s.u64(uint64(g.N()))
	s.u64(uint64(g.M()))
	s.i64s(off)
	s.i32s(adj)
	s.i32s(eid)
	s.edges(edges)
	return s.buf
}

func decodeGraphSlab(payload []byte) (*graph.Graph, error) {
	r := &slabR{sec: SecGraph, b: payload}
	n, m := r.count(), r.count()
	off := r.i64s(n + 1)
	adj := i32Array[int32](r, 2*m)
	eid := i32Array[int32](r, 2*m)
	edges := i32Array[graph.Edge](r, m)
	if err := r.done(); err != nil {
		return nil, err
	}
	g, err := graph.FromCSR(off, adj, eid, edges)
	if err != nil {
		return nil, &CorruptError{Section: SecGraph, Reason: "invalid CSR arrays", Err: err}
	}
	return g, nil
}
