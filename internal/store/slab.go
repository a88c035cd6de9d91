package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"trussdiv/internal/core"
	"trussdiv/internal/graph"
)

// Section payloads are "slabs": sequences of fixed-width
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
	_ = uint(unsafe.Sizeof(core.RankPair{}) - 8)
	_ = uint(8 - unsafe.Sizeof(core.RankPair{}))
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

// encodeInt32s is the payload of a bare per-edge int32 section (tau).
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
//     edges[nEdge] ---

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
	if err := r.done(); err != nil {
		return nil, err
	}
	idx, err := core.NewGCTIndexFromFlat(g, f)
	if err != nil {
		return nil, &CorruptError{Section: SecGCT, Reason: "structure does not describe the graph", Err: err}
	}
	return idx, nil
}

// --- rankings slab: maxK, koff[maxK+2], pairs[nPairs] (vertex, score
//     int32 pairs); row k holds pairs[koff[k]:koff[k+1]], row 0 the
//     parameter-free ranking and row 1 nothing ---
//
// A ranking table is served like the other sections: each row of pairs
// is viewed in place, and the table's chunks are cut out of the rows
// without copying (core.NewRankTable). Loading checks every entry
// (decodeRankingsSlab), so a query never widens an entry that names no
// vertex and a patch never meets a ranking out of order.

func encodeRankingsSlab(t core.RankTable, n int) ([]byte, error) {
	maxK := max(len(t)-1, 2)
	koff := make([]int64, maxK+2)
	var total int64
	for k := 0; k <= maxK; k++ {
		koff[k] = total
		if k < len(t) {
			if t[k].Len() > n {
				return nil, fmt.Errorf("store: ranking for k=%d has %d entries, graph has %d vertices",
					k, t[k].Len(), n)
			}
			total += int64(t[k].Len())
		}
	}
	koff[maxK+1] = total
	pairs := make([]int32, 0, 2*total)
	for _, row := range t {
		for _, c := range row.Chunks() {
			for _, e := range c {
				pairs = append(pairs, e.V, e.Score)
			}
		}
	}
	var s slabW
	s.u64(uint64(maxK))
	s.i64s(koff)
	s.i32s(pairs)
	return s.buf, nil
}

func decodeRankingsSlab(payload []byte, n int) (core.RankTable, error) {
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
	pairs := i32Array[core.RankPair](r, int(total))
	if err := r.done(); err != nil {
		return nil, err
	}
	rows := make([][]core.RankPair, maxK+1)
	for k := range rows {
		lo, hi := koff[k], koff[k+1]
		if lo < 0 || lo > hi || hi > total || hi-lo > int64(n) || (k == 1 && hi > lo) {
			return nil, &CorruptError{Section: SecRankings,
				Reason: fmt.Sprintf("ranking k=%d spans [%d,%d] for %d vertices", k, lo, hi, n)}
		}
		rows[k] = pairs[lo:hi:hi]
	}
	// listed[v] is the last k whose ranking held v (checkRow).
	listed := make([]int32, n)
	for k := 2; k <= maxK; k++ {
		if err := checkRow(rows[k], k, listed); err != nil {
			return nil, err
		}
	}
	if len(rows[0]) != len(rows[2]) {
		return nil, &CorruptError{Section: SecRankings,
			Reason: fmt.Sprintf("ranking k=0 has %d entries, k=2 has %d", len(rows[0]), len(rows[2]))}
	}
	if err := checkRow(rows[0], 0, listed); err != nil {
		return nil, err
	}
	return core.NewRankTable(rows), nil
}

// checkRow checks the ranking at k, given in listed[v] the last k >= 2
// whose ranking held v (0 if none), and updates listed. An entry must
// name a vertex of the graph, score above 0 and come strictly after the
// one before it in canonical order. At k >= 3 it must name a vertex the
// k-1 ranking held; at k = 2, one no ranking held yet. Called last with
// k = 0, on the parameter-free row, it must name a vertex some ranking
// held, at most once (a checked vertex's listed entry is negated), and
// score no higher than the last k holding it: no level above can witness
// the score. The splice that patches a table binary-searches each
// ranking and stops looking for a vertex above the first k that lacks it,
// so a table that breaks any of these would make it list a vertex twice
// or (a score of MinInt32) never finish.
func checkRow(row []core.RankPair, k int, listed []int32) error {
	below := int32(k - 1)
	if k == 2 {
		below = 0
	}
	prev := int64(-1)
	for i, e := range row {
		// Where the score is positive, key increases strictly along a
		// canonical ranking.
		key := (math.MaxInt32-int64(e.Score))<<32 | int64(uint32(e.V))
		var bad string
		switch {
		case uint32(e.V) >= uint32(len(listed)):
			bad = fmt.Sprintf("vertex %d out of range", e.V)
		case e.Score <= 0:
			bad = fmt.Sprintf("score %d not positive", e.Score)
		case key <= prev:
			bad = fmt.Sprintf("(%d, %d) not after entry %d", e.V, e.Score, i-1)
		case k == 0 && listed[e.V] < 0:
			bad = fmt.Sprintf("vertex %d listed twice", e.V)
		case k == 0 && (listed[e.V] == 0 || e.Score > listed[e.V]):
			bad = fmt.Sprintf("vertex %d scores %d, listed last at k=%d", e.V, e.Score, listed[e.V])
		case k > 0 && listed[e.V] != below:
			bad = fmt.Sprintf("vertex %d listed last at k=%d", e.V, listed[e.V])
		}
		if bad != "" {
			return &CorruptError{Section: SecRankings,
				Reason: fmt.Sprintf("ranking k=%d entry %d: %s", k, i, bad)}
		}
		if k == 0 {
			listed[e.V] = -listed[e.V]
		} else {
			listed[e.V] = int32(k)
		}
		prev = key
	}
	return nil
}
