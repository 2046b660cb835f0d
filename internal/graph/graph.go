// Package graph implements the weighted undirected graph substrate used by
// every partitioning method in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form: adjacency for vertex
// v occupies adjncy[xadj[v]:xadj[v+1]] with parallel edge weights. Each
// undirected edge additionally carries a stable edge identifier in [0, m),
// exposed per arc through ArcEdgeIDs; the ant-colony pheromone fields and the
// FM refinement pass are keyed on those identifiers.
//
// The package also provides the standard helpers the partitioners need:
// builders, traversal, connected components, induced subgraphs, synthetic
// generators, and METIS/Chaco-format I/O.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable weighted undirected graph in CSR form.
// Vertex weights default to 1. Edge weights must be positive.
//
// A vertex may additionally carry a self-loop weight. Self-loops are not
// edges: they never appear in the adjacency, can never be cut, and exist so
// that graph coarsening can fold the weight of contracted edges into the
// coarse vertex instead of losing it — package partition counts them toward
// a part's internal weight, which keeps the Ncut/Mcut denominators of a
// coarse partition identical to those of the fine partition it projects to.
type Graph struct {
	xadj   []int32   // len n+1; adjacency offsets
	adjncy []int32   // len 2m; neighbor lists
	adjwgt []float64 // len 2m; weights parallel to adjncy
	arcEID []int32   // len 2m; undirected edge id per arc
	eu, ev []int32   // len m; endpoints of edge id e, eu[e] < ev[e]
	ewgt   []float64 // len m; weight of edge id e
	vwgt   []float64 // len n; vertex weights
	lwgt   []float64 // len n or nil; self-loop weight per vertex
	wdeg   []float64 // len n; weighted degree per vertex (self-loops excluded)
	totW   float64   // sum of undirected edge weights
	totVW  float64   // sum of vertex weights
	totLW  float64   // sum of self-loop weights
	unitEW bool      // every edge weight is exactly 1
	unitVW bool      // every vertex weight is exactly 1
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int { return len(g.xadj) - 1 }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.eu) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.xadj[v+1] - g.xadj[v]) }

// Neighbors returns the neighbor list of v as a shared slice view.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v int) []int32 { return g.adjncy[g.xadj[v]:g.xadj[v+1]] }

// Weights returns the edge weights parallel to Neighbors(v).
// Callers must not modify the returned slice.
func (g *Graph) Weights(v int) []float64 { return g.adjwgt[g.xadj[v]:g.xadj[v+1]] }

// ArcEdgeIDs returns, parallel to Neighbors(v), the undirected edge id of
// each incident edge. Callers must not modify the returned slice.
func (g *Graph) ArcEdgeIDs(v int) []int32 { return g.arcEID[g.xadj[v]:g.xadj[v+1]] }

// EdgeEndpoints returns the endpoints (u < v) of edge id e.
func (g *Graph) EdgeEndpoints(e int) (int, int) { return int(g.eu[e]), int(g.ev[e]) }

// EdgeWeightOf returns the weight of edge id e.
func (g *Graph) EdgeWeightOf(e int) float64 { return g.ewgt[e] }

// VertexWeight returns the weight of vertex v.
func (g *Graph) VertexWeight(v int) float64 { return g.vwgt[v] }

// VertexLoop returns the self-loop weight of vertex v (0 unless the graph
// was built with AddSelfLoop or is a Contract quotient whose vertex v
// absorbed contracted edges). Unordered convention: a fine edge of weight w
// contracted inside v contributes w here.
func (g *Graph) VertexLoop(v int) float64 {
	if g.lwgt == nil {
		return 0
	}
	return g.lwgt[v]
}

// HasLoops reports whether any vertex carries a self-loop weight.
func (g *Graph) HasLoops() bool { return g.lwgt != nil }

// TotalLoopWeight returns the sum of all self-loop weights.
func (g *Graph) TotalLoopWeight() float64 { return g.totLW }

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() float64 { return g.totVW }

// TotalEdgeWeight returns the sum of all undirected edge weights.
func (g *Graph) TotalEdgeWeight() float64 { return g.totW }

// WeightedDegree returns d(v) = sum of the weights of edges incident to v,
// precomputed at construction so per-move hot paths read it in O(1).
func (g *Graph) WeightedDegree(v int) float64 { return g.wdeg[v] }

// UnitEdgeWeights reports whether every edge weight is exactly 1.0, detected
// at construction. Per-move scoring loops use it to count incident edges with
// integer arithmetic instead of loading the weight array: a sum of 1.0s below
// 2^53 equals the float64 of its count exactly, so the fast path is
// bit-identical while touching half the memory.
func (g *Graph) UnitEdgeWeights() bool { return g.unitEW }

// UnitVertexWeights reports whether every vertex weight is exactly 1.0,
// detected at construction. Hot loops use it to substitute the constant 1.0
// for the random vwgt load their vertex draw would otherwise pay — the array
// outgrows L1 on large graphs, and the substituted arithmetic is
// bit-identical.
func (g *Graph) UnitVertexWeights() bool { return g.unitVW }

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
// It scans the shorter of the two adjacency lists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	nbrs := g.Neighbors(u)
	wts := g.Weights(u)
	for i, x := range nbrs {
		if int(x) == v {
			return wts[i], true
		}
	}
	return 0, false
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int, w float64)) {
	for e := range g.eu {
		fn(int(g.eu[e]), int(g.ev[e]), g.ewgt[e])
	}
}

// ForEachEdgeID is ForEachEdge with the undirected edge id included, for
// callers that key per-edge state (pheromone fields, FM gains) on edge ids.
func (g *Graph) ForEachEdgeID(fn func(e, u, v int, w float64)) {
	for e := range g.eu {
		fn(e, int(g.eu[e]), int(g.ev[e]), g.ewgt[e])
	}
}

// Builder accumulates edges and produces an immutable Graph.
// Parallel edges between the same vertex pair are merged by summing weights.
//
// Edges are buffered in a flat slice (24 bytes each, amortized) rather than a
// hash map and deduplicated by a sort-then-merge pass inside Build, so
// million-edge builds cost a fraction of the memory of the former
// map[[2]int32]float64 accumulator; see BenchmarkBuilderLargeBuild.
type Builder struct {
	n     int
	vwgt  []float64
	lwgt  []float64     // nil until the first AddSelfLoop
	edges []builderEdge // u < v normalized; parallels merged at Build time
	err   error
}

type builderEdge struct {
	u, v int32
	w    float64
}

// NewBuilder returns a builder for a graph with n vertices, all of weight 1.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, vwgt: make([]float64, n)}
	for i := range b.vwgt {
		b.vwgt[i] = 1
	}
	return b
}

// AddEdge adds an undirected edge {u,v} with weight w, merging parallels.
// Self-loops, out-of-range endpoints and non-positive weights are recorded as
// errors reported by Build.
func (b *Builder) AddEdge(u, v int, w float64) {
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
		b.edges = append(b.edges, builderEdge{int32(u), int32(v), w})
	}
}

// AddSelfLoop adds w to the self-loop weight of vertex v. Self-loops are
// deliberately separate from AddEdge (which rejects u == v): they never
// enter the adjacency and can never be cut; they record internal weight a
// coarsening contraction folded into v. Non-positive w and out-of-range v
// are recorded as errors reported by Build.
func (b *Builder) AddSelfLoop(v int, w float64) {
	if b.err != nil {
		return
	}
	switch {
	case v < 0 || v >= b.n:
		b.err = fmt.Errorf("graph: self-loop vertex %d out of range [0,%d)", v, b.n)
	case w <= 0:
		b.err = fmt.Errorf("graph: self-loop at vertex %d has non-positive weight %g", v, w)
	default:
		if b.lwgt == nil {
			b.lwgt = make([]float64, b.n)
		}
		b.lwgt[v] += w
	}
}

// Reserve grows the edge buffer to hold m additional edges, sparing the
// append-doubling copies on large builds where the caller knows the edge
// count up front (file headers, generators).
func (b *Builder) Reserve(m int) {
	if m <= 0 || b.err != nil {
		return
	}
	if cap(b.edges)-len(b.edges) < m {
		grown := make([]builderEdge, len(b.edges), len(b.edges)+m)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// SetVertexWeight sets the weight of vertex v (default 1).
func (b *Builder) SetVertexWeight(v int, w float64) {
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

// NumPendingEdges reports how many edges have been added so far; parallel
// edges are still counted separately, Build merges them.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build constructs the CSR graph. The builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
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

// MustBuild is Build but panics on error; intended for tests and generators
// whose inputs are correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
