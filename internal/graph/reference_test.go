package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Frozen oracles: referenceBuild is Builder.Build and referenceReadMETIS is
// ReadMETIS as they were before both moved onto the counting-sort assembly
// core Contract uses (a stable comparison sort of the edge list, and a
// mention map feeding it). The equivalence tests hold every constructor to
// these bodies, so the shared core is never compared with itself. Do not
// edit them to follow the live code.

// referenceBuild builds b's graph the way Builder.Build did: stable-sort the
// edges by (u, v), merge parallels in insertion order, scatter in edge-id
// order.
func referenceBuild(b *Builder) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	list := b.edges
	b.edges = nil
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].u != list[j].u {
			return list[i].u < list[j].u
		}
		return list[i].v < list[j].v
	})
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

	g := &Graph{
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

// mustReferenceBuild is referenceBuild that panics on error.
func mustReferenceBuild(b *Builder) *Graph {
	g, err := referenceBuild(b)
	if err != nil {
		panic(err)
	}
	return g
}

// referenceReadMETIS parses METIS text the way ReadMETIS did: confirm each
// undirected edge through a mention map keyed by its endpoints, then hand
// the confirmed edges to referenceBuild in map order.
func referenceReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line, err := refNextLine(sc, true)
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
	const maxID = 1<<31 - 1
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

	type mention struct {
		w         float64
		from      int32
		confirmed bool
	}
	seen := make(map[[2]int32]mention)
	var vwgts []float64
	if hasVW {
		vwgts = make([]float64, 0)
	}
	for v := 0; v < n; v++ {
		line, err := refNextLine(sc, false)
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

	b := NewBuilder(n)
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
	g, err := referenceBuild(b)
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, g.NumEdges())
	}
	return g, nil
}

// refNextLine returns the next non-comment line, trimmed; with skipBlank it
// also skips blank lines (the header's rule).
func refNextLine(sc *bufio.Scanner, skipBlank bool) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if (skipBlank && line == "") || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
