package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"trussdiv/internal/testutil"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment line
% another comment
10 20
20 30

30 10
10 20
`
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3,3", g.N(), g.M())
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Fatal("want error for one-field line")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-integer field")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := testutil.Rand(t, 3)
	b := NewBuilder(30)
	for i := 0; i < 120; i++ {
		b.AddEdge(int32(rng.Intn(30)), int32(rng.Intn(30)))
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("round trip M = %d, want %d", g2.M(), g.M())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := testutil.Rand(t, 4)
	b := NewBuilder(25)
	for i := 0; i < 80; i++ {
		b.AddEdge(int32(rng.Intn(25)), int32(rng.Intn(25)))
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip N,M = %d,%d want %d,%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for id := int32(0); int(id) < g.M(); id++ {
		if g.Edge(id) != g2.Edge(id) {
			t.Fatalf("edge %d differs after round trip", id)
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestReadBinaryCorruptEdgeCount(t *testing.T) {
	g := gen(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Lie about the edge count: reading must fail at EOF, not OOM.
	for i := 8; i < 12; i++ {
		data[i] = 0xff
	}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt edge count accepted")
	}
}

// TestReadBinaryVertexCountOutOfRange: a header whose vertex count does
// not fit an int32 vertex ID is an error, not a makeslice panic.
func TestReadBinaryVertexCountOutOfRange(t *testing.T) {
	for _, n := range []uint32{0x80000000, 0xFFFFFFFF} {
		hdr := binary.LittleEndian.AppendUint32(nil, binaryMagic)
		hdr = binary.LittleEndian.AppendUint32(hdr, n)
		hdr = binary.LittleEndian.AppendUint32(hdr, 0)
		if g, err := ReadBinary(bytes.NewReader(hdr)); err == nil || g != nil {
			t.Fatalf("n=%#x: got graph %v, err %v; want an error", n, g, err)
		}
	}
	if g, err := FromEdges(1<<31, nil); err == nil || g != nil {
		t.Fatalf("FromEdges(1<<31): got graph %v, err %v; want an error", g, err)
	}
	if g, err := FromEdges(-1, nil); err == nil || g != nil {
		t.Fatalf("FromEdges(-1): got graph %v, err %v; want an error", g, err)
	}
}

// gen builds a small graph for the corrupt-input tests.
func gen(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.Build()
}
