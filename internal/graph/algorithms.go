package graph

import (
	"fmt"
	"sort"
	"sync"
)

// BFSLevels performs a breadth-first search from src and returns the hop
// distance of every vertex (-1 for unreachable vertices).
func BFSLevels(g *Graph, src int) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

// Components labels each vertex with a connected-component id in [0, count)
// and returns the labels and the component count.
func Components(g *Graph) ([]int32, int) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = int32(count)
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] < 0 {
					comp[u] = int32(count)
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether g has exactly one connected component.
// The empty graph is considered connected.
func IsConnected(g *Graph) bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, c := Components(g)
	return c == 1
}

// Subgraph is an induced subgraph together with the vertex mapping back to
// the parent graph.
type Subgraph struct {
	G    *Graph
	Orig []int32 // Orig[local] = parent vertex id
}

// Induced returns the subgraph induced by the given distinct parent
// vertices. Edges with exactly one endpoint in the set are dropped, and so
// are self-loop weights. Vertex weights are inherited. The order of
// vertices in the subgraph follows the order given.
//
// The CSR is assembled directly, in time proportional to the set's total
// degree: each local adjacency is the parent's, filtered and put in
// ascending local order — the canonical order Builder produces — and the
// derived arrays come from rebuildDerived, so the result equals the graph
// a Builder fed the same edges would build, bit for bit.
func Induced(g *Graph, vertices []int32) *Subgraph {
	local := borrowLocalIndex(g.NumVertices())
	arcs := 0
	for i, v := range vertices {
		local[v] = int32(i) + 1
		arcs += g.Degree(int(v))
	}
	s := len(vertices)
	sub := &Graph{
		xadj:   make([]int32, s+1),
		adjncy: make([]int32, 0, arcs),
		adjwgt: make([]float64, 0, arcs),
		vwgt:   make([]float64, s),
	}
	for i, v := range vertices {
		sub.vwgt[i] = g.VertexWeight(int(v))
		start := len(sub.adjncy)
		wts := g.Weights(int(v))
		for j, u := range g.Neighbors(int(v)) {
			if lu := local[u]; lu != 0 {
				sub.adjncy = append(sub.adjncy, lu-1)
				sub.adjwgt = append(sub.adjwgt, wts[j])
			}
		}
		sortArcs(sub.adjncy[start:], sub.adjwgt[start:])
		sub.xadj[i+1] = int32(len(sub.adjncy))
	}
	for _, v := range vertices {
		local[v] = 0
	}
	localIndexPool.Put(&local)
	if err := sub.rebuildDerived(); err != nil {
		// The rows are sorted and symmetric by construction; only a
		// repeated vertex in the list, or a non-finite weight Builder let
		// into the parent, fails the check.
		panic(fmt.Errorf("graph: induced: %w", err))
	}
	return &Subgraph{G: sub, Orig: append([]int32(nil), vertices...)}
}

// localIndexPool holds parent-sized vertex-to-local-id tables for Induced,
// all zero between uses (an entry is 1 + the local id while in use), so a
// call costs time in the size of its vertex set rather than the parent's.
var localIndexPool sync.Pool

func borrowLocalIndex(n int) []int32 {
	if p, ok := localIndexPool.Get().(*[]int32); ok && len(*p) >= n {
		return *p
	}
	return make([]int32, n)
}

// sortArcs sorts one adjacency row by neighbor id, carrying the weights
// along. Rows are short and usually already sorted, so insertion sort
// handles them; a row longer than sortArcsCutoff (a hub, or any row of a
// shuffled vertex list) goes to sort.Sort, O(d log d) instead of the
// quadratic worst case. Neighbor ids in a row are distinct, so both sorts
// give the same result.
func sortArcs(nbrs []int32, wts []float64) {
	if len(nbrs) > sortArcsCutoff {
		sort.Sort(arcRow{nbrs, wts})
		return
	}
	for i := 1; i < len(nbrs); i++ {
		u, w := nbrs[i], wts[i]
		j := i - 1
		for ; j >= 0 && nbrs[j] > u; j-- {
			nbrs[j+1], wts[j+1] = nbrs[j], wts[j]
		}
		nbrs[j+1], wts[j+1] = u, w
	}
}

// sortArcsCutoff is the row length above which sortArcs leaves insertion
// sort.
const sortArcsCutoff = 32

// arcRow orders an adjacency row by neighbor id, weights alongside.
type arcRow struct {
	nbrs []int32
	wts  []float64
}

func (r arcRow) Len() int           { return len(r.nbrs) }
func (r arcRow) Less(i, j int) bool { return r.nbrs[i] < r.nbrs[j] }
func (r arcRow) Swap(i, j int) {
	r.nbrs[i], r.nbrs[j] = r.nbrs[j], r.nbrs[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}

// FarthestPointSeeds returns k well-spread vertices chosen by greedy
// farthest-point traversal on hop distance, starting from start. The start
// vertex is the first seed. If k exceeds the number of reachable vertices the
// result is truncated.
func FarthestPointSeeds(g *Graph, start, k int) []int {
	n := g.NumVertices()
	if k <= 0 || n == 0 {
		return nil
	}
	seeds := []int{start}
	dist := BFSLevels(g, start)
	for len(seeds) < k {
		best, bestD := -1, int32(-1)
		for v := 0; v < n; v++ {
			if dist[v] > bestD {
				best, bestD = v, dist[v]
			}
		}
		if best < 0 || bestD <= 0 {
			break // no further reachable vertex strictly away from the seed set
		}
		seeds = append(seeds, best)
		for v, d := range BFSLevels(g, best) {
			if d >= 0 && (dist[v] < 0 || d < dist[v]) {
				dist[v] = d
			}
		}
	}
	return seeds
}
