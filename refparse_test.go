package fusionfission

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Frozen copy of the METIS reader the committed BENCH_store.json admission
// ratio was measured with: ReadMETIS and the Builder methods it calls,
// verbatim except for the renames below. TestStoreBenchSmoke times it
// against binary decode, so the admission gate keeps tracking the decoder
// while the live reader gets faster. internal/graph's reference_test.go
// freezes the same two bodies as its equivalence oracle; neither copy may
// be edited to follow the live code.
//
// Renames: Graph -> refGraph, Builder -> refBuilder, NewBuilder ->
// newRefBuilder, builderEdge -> refBuilderEdge, ReadMETIS ->
// referenceReadMETIS, nextDataLine/nextBodyLine -> refNextDataLine/
// refNextBodyLine.

// refGraph holds the fields the frozen Build fills in.
type refGraph struct {
	xadj, adjncy, arcEID, eu, ev   []int32
	adjwgt, ewgt, vwgt, lwgt, wdeg []float64
	totW, totVW, totLW             float64
	unitEW, unitVW                 bool
}

// NumEdges returns the number of undirected edges m.
func (g *refGraph) NumEdges() int { return len(g.eu) }

func referenceReadMETIS(r io.Reader) (*refGraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line, err := refNextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: missing header: %w", err)
	}
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

	// Each undirected edge must be mentioned exactly twice, once per
	// endpoint; mention tracks which endpoint spoke first so a vertex
	// repeating its own mention cannot masquerade as the confirmation.
	type mention struct {
		w         float64
		from      int32
		confirmed bool
	}
	seen := make(map[[2]int32]mention)
	var vwgts []float64 // grown per line read, so memory tracks input size
	if hasVW {
		vwgts = make([]float64, 0)
	}
	for v := 0; v < n; v++ {
		line, err := refNextBodyLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: missing adjacency line for vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVW {
			if len(toks) == 0 {
				return nil, fmt.Errorf("graph: vertex %d: missing weight", v+1)
			}
			vw, err := strconv.ParseFloat(toks[0], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: bad weight: %w", v+1, err)
			}
			if !(vw > 0) || math.IsInf(vw, 1) {
				return nil, fmt.Errorf("graph: vertex %d: weight %g not positive and finite", v+1, vw)
			}
			vwgts = append(vwgts, vw)
			i = 1
		}
		for i < len(toks) {
			u, err := strconv.Atoi(toks[i])
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: bad neighbor %q: %w", v+1, toks[i], err)
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
				w, err = strconv.ParseFloat(toks[i], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: vertex %d: bad edge weight: %w", v+1, err)
				}
				if !(w > 0) || math.IsInf(w, 1) {
					return nil, fmt.Errorf("graph: vertex %d: edge weight %g not positive and finite", v+1, w)
				}
				i++
			}
			a, c := int32(v), int32(u-1)
			if a > c {
				a, c = c, a
			}
			key := [2]int32{a, c}
			switch prev, ok := seen[key]; {
			case !ok:
				seen[key] = mention{w: w, from: int32(v)}
			case prev.confirmed:
				return nil, fmt.Errorf("graph: edge {%d,%d} listed more than twice", a+1, c+1)
			case prev.from == int32(v):
				return nil, fmt.Errorf("graph: vertex %d lists neighbor %d twice", v+1, u)
			case prev.w != w:
				return nil, fmt.Errorf("graph: edge {%d,%d} listed with weights %g and %g", a+1, c+1, prev.w, w)
			default:
				seen[key] = mention{w: w, from: prev.from, confirmed: true}
			}
		}
	}

	// Both endpoints have reported; only now is O(n) allocation justified.
	b := newRefBuilder(n)
	b.Reserve(len(seen))
	for v, w := range vwgts {
		b.SetVertexWeight(v, w)
	}
	for key, h := range seen {
		if !h.confirmed {
			return nil, fmt.Errorf("graph: edge {%d,%d} listed by only one endpoint", key[0]+1, key[1]+1)
		}
		b.AddEdge(int(key[0]), int(key[1]), h.w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, g.NumEdges())
	}
	return g, nil
}

func refNextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

func refNextBodyLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

type refBuilder struct {
	n     int
	vwgt  []float64
	lwgt  []float64        // nil until the first AddSelfLoop
	edges []refBuilderEdge // u < v normalized; parallels merged at Build time
	err   error
}

type refBuilderEdge struct {
	u, v int32
	w    float64
}

func newRefBuilder(n int) *refBuilder {
	b := &refBuilder{n: n, vwgt: make([]float64, n)}
	for i := range b.vwgt {
		b.vwgt[i] = 1
	}
	return b
}

func (b *refBuilder) AddEdge(u, v int, w float64) {
	if b.err != nil {
		return
	}
	switch {
	case u == v:
		b.err = fmt.Errorf("graph: self-loop at vertex %d", u)
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		b.err = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	case w <= 0:
		b.err = fmt.Errorf("graph: edge {%d,%d} has non-positive weight %g", u, v, w)
	default:
		if u > v {
			u, v = v, u
		}
		b.edges = append(b.edges, refBuilderEdge{int32(u), int32(v), w})
	}
}

func (b *refBuilder) Reserve(m int) {
	if m <= 0 || b.err != nil {
		return
	}
	if cap(b.edges)-len(b.edges) < m {
		grown := make([]refBuilderEdge, len(b.edges), len(b.edges)+m)
		copy(grown, b.edges)
		b.edges = grown
	}
}

func (b *refBuilder) SetVertexWeight(v int, w float64) {
	if b.err != nil {
		return
	}
	if v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: vertex %d out of range [0,%d)", v, b.n)
		return
	}
	if w <= 0 {
		b.err = fmt.Errorf("graph: vertex %d has non-positive weight %g", v, w)
		return
	}
	b.vwgt[v] = w
}

func (b *refBuilder) Build() (*refGraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	list := b.edges
	b.edges = nil
	// Stable, so parallel edges merge their weights in insertion order and
	// the summed floats match the order-of-add accumulation exactly.
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].u != list[j].u {
			return list[i].u < list[j].u
		}
		return list[i].v < list[j].v
	})
	// Merge parallel edges in place: after the sort they are adjacent.
	merged := list[:0]
	for _, e := range list {
		if k := len(merged); k > 0 && merged[k-1].u == e.u && merged[k-1].v == e.v {
			merged[k-1].w += e.w
			continue
		}
		merged = append(merged, e)
	}
	list = merged
	m := len(list)

	g := &refGraph{
		xadj:   make([]int32, n+1),
		adjncy: make([]int32, 2*m),
		adjwgt: make([]float64, 2*m),
		arcEID: make([]int32, 2*m),
		eu:     make([]int32, m),
		ev:     make([]int32, m),
		ewgt:   make([]float64, m),
		vwgt:   b.vwgt,
		lwgt:   b.lwgt,
	}
	for _, w := range g.lwgt {
		g.totLW += w
	}
	deg := make([]int32, n)
	for _, e := range list {
		deg[e.u]++
		deg[e.v]++
	}
	for v := 0; v < n; v++ {
		g.xadj[v+1] = g.xadj[v] + deg[v]
	}
	pos := make([]int32, n)
	copy(pos, g.xadj[:n])
	for id, e := range list {
		g.eu[id], g.ev[id] = e.u, e.v
		g.ewgt[id] = e.w
		g.adjncy[pos[e.u]] = e.v
		g.adjwgt[pos[e.u]] = e.w
		g.arcEID[pos[e.u]] = int32(id)
		pos[e.u]++
		g.adjncy[pos[e.v]] = e.u
		g.adjwgt[pos[e.v]] = e.w
		g.arcEID[pos[e.v]] = int32(id)
		pos[e.v]++
		g.totW += e.w
	}
	for _, w := range g.vwgt {
		g.totVW += w
	}
	// Weighted degrees, summed in adjacency order — the exact accumulation
	// the per-call loop used before precomputation, so the values are
	// bit-identical.
	g.wdeg = make([]float64, n)
	for v := 0; v < n; v++ {
		d := 0.0
		for _, w := range g.adjwgt[g.xadj[v]:g.xadj[v+1]] {
			d += w
		}
		g.wdeg[v] = d
	}
	g.unitEW = true
	for _, w := range g.ewgt {
		if w != 1 {
			g.unitEW = false
			break
		}
	}
	g.unitVW = true
	for _, w := range g.vwgt {
		if w != 1 {
			g.unitVW = false
			break
		}
	}
	return g, nil
}
