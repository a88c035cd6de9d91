package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzLoadEdgeList hardens the text edge-list loader that sits on the
// server's graph-loading path: arbitrary input must either parse into a
// structurally valid graph or return an error — never panic, and never
// produce a graph that violates the simple-graph invariants the engines
// rely on. Every parsed graph then drives the triangle listing against
// the naive oracle (checkTriangles): Supports, TrianglesPerVertex,
// CountTriangles and ForEachTriangle, and two SupportsInto calls over one
// marker, a few entries longer than the graph, that must agree and leave
// it clear.
func FuzzLoadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"",
		"# comment only\n",
		"% matrix-market comment\n1 2\n",
		"0 1\n1 2\n2 0\n",
		"10 20\n20 30\n",
		"1 1\n",                    // self-loop: dropped by the builder
		"3 4\n4 3\n3 4\n",          // duplicates in both orientations
		"-5 7\n",                   // negative labels are relabeled, not rejected
		"9999999999999 0\n",        // labels near int64 range
		"1 2 3 extra fields\n",     // trailing fields are ignored
		"1\n",                      // too few fields: error
		"a b\n",                    // non-integer: error
		"1 99999999999999999999\n", // overflows int64: error
		"\x00\x01\x02",
		strings.Repeat("7 8\n", 100),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, labels, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			if g != nil || labels != nil {
				t.Fatalf("non-nil results alongside error %v", err)
			}
			return
		}
		if g.N() != len(labels) {
			t.Fatalf("graph has %d vertices but %d labels", g.N(), len(labels))
		}
		for i := 1; i < len(labels); i++ {
			if labels[i-1] >= labels[i] {
				t.Fatalf("labels not strictly ascending at %d: %v", i, labels[i-1:i+1])
			}
		}
		// Simple-graph invariants: no self-loops, canonical orientation,
		// endpoints in range.
		seen := make(map[[2]int32]bool, g.M())
		for id := int32(0); int(id) < g.M(); id++ {
			e := g.Edge(id)
			if e.U >= e.V {
				t.Fatalf("edge %d = (%d,%d) not canonical", id, e.U, e.V)
			}
			if e.U < 0 || int(e.V) >= g.N() {
				t.Fatalf("edge %d = (%d,%d) out of range [0,%d)", id, e.U, e.V, g.N())
			}
			key := [2]int32{e.U, e.V}
			if seen[key] {
				t.Fatalf("duplicate edge (%d,%d)", e.U, e.V)
			}
			seen[key] = true
		}
		checkTriangles(t, g, make([]int32, g.N()+3), "parsed graph")
		// Round-trip: writing and re-reading preserves the structure.
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, _, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.M() != g.M() {
			t.Fatalf("round-trip edges %d, want %d", back.M(), g.M())
		}
	})
}

// fuzzMaxVertices caps the vertex count FuzzReadBinary lets through to the
// CSR layout. A header may validly name up to math.MaxInt32 vertices, and
// the layout costs O(n) memory whatever the edge count, so larger counts
// that still fit an int32 are skipped to keep each fuzz run small; counts
// beyond int32 still reach ReadBinary, which must reject them.
const fuzzMaxVertices = 1 << 16

// FuzzReadBinary hardens the binary graph reader, whose bytes come from
// outside (trussdiv.ReadBinaryGraph): arbitrary input must either return
// an error and a nil graph, or a graph whose edges are canonical, unique
// and in range, and which survives a WriteBinary round trip.
func FuzzReadBinary(f *testing.F) {
	var valid bytes.Buffer
	b := NewBuilder(7)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 6}} {
		b.AddEdge(e[0], e[1])
	}
	if err := b.Build().WriteBinary(&valid); err != nil {
		f.Fatal(err)
	}
	header := func(magic, n, m uint32) []byte {
		h := binary.LittleEndian.AppendUint32(nil, magic)
		h = binary.LittleEndian.AppendUint32(h, n)
		return binary.LittleEndian.AppendUint32(h, m)
	}
	for _, seed := range [][]byte{
		valid.Bytes(),
		{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0}, // bad magic
		valid.Bytes()[:6],                    // truncated header
		header(binaryMagic, 0x80000000, 0),   // n beyond int32
		header(binaryMagic, 0xFFFFFFFF, 0),
		header(binaryMagic, 3, 0xFFFFFFFF), // edge count beyond the body
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			if n := binary.LittleEndian.Uint32(data[4:8]); n > fuzzMaxVertices && n <= math.MaxInt32 {
				return
			}
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatalf("non-nil graph alongside error %v", err)
			}
			return
		}
		seen := make(map[Edge]bool, g.M())
		for id := int32(0); int(id) < g.M(); id++ {
			e := g.Edge(id)
			if e.U < 0 || e.U >= e.V || int(e.V) >= g.N() {
				t.Fatalf("edge %d = (%d,%d) not canonical in [0,%d)", id, e.U, e.V, g.N())
			}
			if seen[e] {
				t.Fatalf("duplicate edge (%d,%d)", e.U, e.V)
			}
			seen[e] = true
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip N,M = %d,%d, want %d,%d", back.N(), back.M(), g.N(), g.M())
		}
	})
}
