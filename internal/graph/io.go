package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list (the SNAP text
// format): one "u v" pair per line, '#' or '%' lines are comments. Vertex
// labels are arbitrary non-negative integers; they are relabeled to dense
// IDs 0..n-1 in ascending label order. The returned slice maps dense ID
// back to the original label.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type rawEdge struct{ u, v int64 }
	var raw []rawEdge
	labelSet := map[int64]struct{}{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		raw = append(raw, rawEdge{u, v})
		labelSet[u] = struct{}{}
		labelSet[v] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: read: %w", err)
	}
	labels := make([]int64, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	dense := make(map[int64]int32, len(labels))
	for i, l := range labels {
		dense[l] = int32(i)
	}
	b := NewBuilder(len(labels))
	for _, e := range raw {
		b.AddEdge(dense[e.u], dense[e.v])
	}
	return b.Build(), labels, nil
}

// WriteEdgeList writes g in SNAP text format, one canonical "u v" line per
// edge, preceded by a comment header.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected simple graph: %d vertices, %d edges\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

const binaryMagic = uint32(0x54535147) // "TSQG"

// WriteBinary writes g in a compact little-endian binary format:
// magic, n, m, then m (u,v) int32 pairs.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := [3]uint32{binaryMagic, uint32(g.N()), uint32(g.M())}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Edges()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	// Read edges in bounded chunks so a corrupt header's edge count fails
	// at EOF instead of forcing one giant up-front allocation.
	const chunk = 1 << 16
	edges := make([]Edge, 0, min(int(hdr[2]), chunk))
	remaining := int(hdr[2])
	buf := make([]Edge, 0, chunk)
	for remaining > 0 {
		n := min(remaining, chunk)
		buf = buf[:n]
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: binary edges: %w", err)
		}
		edges = append(edges, buf...)
		remaining -= n
	}
	return FromEdges(int(hdr[1]), edges)
}
