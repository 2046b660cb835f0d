package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The METIS/Chaco graph file format:
//
//	% comment lines start with '%'
//	<n> <m> [fmt]
//	neighbors of vertex 1 (1-indexed), optionally interleaved with weights
//	...
//
// fmt is a three-digit code: 1xx = vertex sizes (unsupported here),
// x1x = vertex weights, xx1 = edge weights. We support 000, 001, 010, 011.

// WriteMETIS writes g in METIS format. Edge weights are written whenever any
// weight differs from 1; vertex weights likewise. Weights are rendered with
// %g, so integral weights round-trip exactly.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hasVW, hasEW := false, false
	for v := 0; v < g.NumVertices(); v++ {
		if g.VertexWeight(v) != 1 {
			hasVW = true
		}
		for _, ew := range g.Weights(v) {
			if ew != 1 {
				hasEW = true
			}
		}
	}
	code := "00"
	if hasVW {
		code = "01"
	}
	if hasEW {
		code += "1"
	} else {
		code += "0"
	}
	if _, err := fmt.Fprintf(bw, "%d %d %s\n", g.NumVertices(), g.NumEdges(), code); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		parts := make([]string, 0, 2*g.Degree(v)+1)
		if hasVW {
			parts = append(parts, strconv.FormatFloat(g.VertexWeight(v), 'g', -1, 64))
		}
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		for i, u := range nbrs {
			parts = append(parts, strconv.Itoa(int(u)+1))
			if hasEW {
				parts = append(parts, strconv.FormatFloat(wts[i], 'g', -1, 64))
			}
		}
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMETIS parses a graph in METIS format. Both endpoints must list every
// edge, once each and with equal weights; asymmetric listings, repeated
// mentions and self-arcs are rejected.
//
// Each adjacency line is parsed straight into CSR row arrays, and the rows
// are finished by the same linear-time core as Builder.Build. The header is
// not trusted: the row arrays grow with the lines actually read, and all
// O(n) allocation is deferred until n adjacency lines have been read, so a
// tiny input claiming a huge vertex count fails fast instead of exhausting
// memory.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	raw, err := nextLine(sc, true)
	if err != nil {
		return nil, fmt.Errorf("graph: missing header: %w", err)
	}
	line := string(raw)
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: malformed header %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("graph: bad vertex count: %w", err)
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("graph: bad edge count: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative header counts %d %d", n, m)
	}
	const maxID = 1<<31 - 1 // vertex and edge ids are int32 in CSR form
	if n > maxID || m > maxID/2 {
		return nil, fmt.Errorf("graph: header counts %d %d exceed implementation limits", n, m)
	}
	hasVW, hasEW := false, false
	if len(fields) >= 3 {
		code := fields[2]
		if len(code) != 3 || strings.Trim(code, "01") != "" || code[0] == '1' {
			return nil, fmt.Errorf("graph: unsupported format code %q", code)
		}
		hasVW = code[1] == '1'
		hasEW = code[2] == '1'
	}

	var nbr []int32
	var wt, vwgt []float64
	xadj := []int32{0}
	var toks [][]byte
	for v := 0; v < n; v++ {
		line, err := nextLine(sc, false)
		if err != nil {
			return nil, fmt.Errorf("graph: missing adjacency line for vertex %d: %w", v+1, err)
		}
		toks = splitFields(toks, line)
		i := 0
		if hasVW {
			if len(toks) == 0 {
				return nil, fmt.Errorf("graph: vertex %d: missing weight", v+1)
			}
			vw, err := parseFloat(toks[0])
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: bad weight: %w", v+1, err)
			}
			if !positiveFinite(vw) {
				return nil, fmt.Errorf("graph: vertex %d: weight %g not positive and finite", v+1, vw)
			}
			vwgt = append(vwgt, vw)
			i = 1
		}
		for i < len(toks) {
			u, ok := decimal(toks[i])
			if !ok {
				if u, err = strconv.Atoi(string(toks[i])); err != nil {
					return nil, fmt.Errorf("graph: vertex %d: bad neighbor %q: %w", v+1, toks[i], err)
				}
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("graph: vertex %d: neighbor %d out of range [1,%d]", v+1, u, n)
			}
			i++
			w := 1.0
			if hasEW {
				if i >= len(toks) {
					return nil, fmt.Errorf("graph: vertex %d: neighbor %d missing edge weight", v+1, u)
				}
				if w, err = parseFloat(toks[i]); err != nil {
					return nil, fmt.Errorf("graph: vertex %d: bad edge weight: %w", v+1, err)
				}
				if !positiveFinite(w) {
					return nil, fmt.Errorf("graph: vertex %d: edge weight %g not positive and finite", v+1, w)
				}
				i++
			}
			nbr = append(nbr, int32(u-1))
			wt = append(wt, w)
		}
		xadj = append(xadj, int32(len(nbr)))
	}

	// All n lines are in; only now is O(n) allocation justified. Each
	// vertex must be named exactly as often as it names others, and the
	// rows must hold two arcs per declared edge, before finish may
	// transpose them; finish rejects the remaining asymmetries.
	named := make([]int32, n)
	for _, u := range nbr {
		named[u]++
	}
	for v, c := range named {
		if d := xadj[v+1] - xadj[v]; d != c {
			return nil, fmt.Errorf("graph: vertex %d lists %d neighbors but is listed by %d", v+1, d, c)
		}
	}
	if len(nbr) != 2*m {
		return nil, fmt.Errorf("graph: header declares %d edges, but the adjacency lists name %d neighbors", m, len(nbr))
	}
	if !hasVW {
		vwgt = make([]float64, n)
		for v := range vwgt {
			vwgt[v] = 1
		}
	}
	g, err := finish(xadj, nbr, wt, vwgt, nil)
	if err != nil {
		return nil, fmt.Errorf("graph: adjacency lists disagree (0-based ids): %w", err)
	}
	if err := g.checkTotals(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return g, nil
}

// nextLine returns the next non-comment line, trimmed, valid until the
// next Scan. With skipBlank it also skips blank lines (the header's rule);
// in the body a blank line is meaningful: it is the empty adjacency list of
// an isolated vertex, exactly what WriteMETIS emits for one.
func nextLine(sc *bufio.Scanner, skipBlank bool) ([]byte, error) {
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if (skipBlank && len(line) == 0) || bytes.HasPrefix(line, []byte("%")) {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// splitFields returns line's fields in dst's storage, split at white space
// exactly as strings.Fields splits: byte by byte for ASCII lines, by
// bytes.Fields for any other.
func splitFields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:0], bytes.Fields(line)...)
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// decimal parses a token of one to nine ASCII digits, the whole of a
// typical METIS file, without the string conversion strconv needs; ok is
// false for anything else.
func decimal(tok []byte) (x int, ok bool) {
	if len(tok) == 0 || len(tok) > 9 {
		return 0, false
	}
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		x = x*10 + int(c-'0')
	}
	return x, true
}

// parseFloat is strconv.ParseFloat on a token, exact and allocation-free
// for the integer weights most METIS files carry.
func parseFloat(tok []byte) (float64, error) {
	if x, ok := decimal(tok); ok {
		return float64(x), nil
	}
	return strconv.ParseFloat(string(tok), 64)
}
