package graph

import "fmt"

// Contract returns the quotient graph of g under the surjective vertex map
// toCoarse (fine vertex -> coarse vertex in [0, nc)), the contraction step
// of multilevel coarsening. A coarse vertex weighs the sum of its members;
// the fine edges between two coarse vertices merge into one coarse edge of
// their summed weight; a fine edge inside a coarse vertex is not lost but
// folded into that vertex's self-loop weight, together with the self-loop
// weight its members already carried.
//
// The CSR is assembled directly in O(n + m + nc), and the result is bit for
// bit the graph a Builder fed the same contraction would build:
//
//   - a coarse vertex weight is 0 + its members' weights in ascending fine id;
//   - a coarse edge weight is a left fold of its fine edges' weights in
//     ascending fine edge id (Builder's stable-sort merge order);
//   - a self-loop weight is 0 + the internal fine edges in edge-id order,
//     then each member's carried loop in ascending fine id, and the loop
//     section exists only if some internal edge or carried loop does.
func Contract(g *Graph, toCoarse []int32, nc int) (*Graph, error) {
	n, m := g.NumVertices(), g.NumEdges()
	if len(toCoarse) != n {
		return nil, fmt.Errorf("graph: contraction map has %d entries for %d vertices", len(toCoarse), n)
	}
	vwgt := make([]float64, nc)
	members := make([]int32, nc)
	for v, c := range toCoarse {
		if c < 0 || int(c) >= nc {
			return nil, fmt.Errorf("graph: contraction maps vertex %d to out-of-range id %d", v, c)
		}
		vwgt[c] += g.vwgt[v]
		members[c]++
	}
	for c, k := range members {
		if k == 0 {
			return nil, fmt.Errorf("graph: contraction leaves coarse vertex %d without members", c)
		}
	}

	// Bucket the cut fine edges by coarse endpoint, both directions, in
	// ascending edge id (a stable counting sort); fold the internal ones
	// into self-loops on the way.
	start := make([]int32, nc+1)
	var lwgt []float64
	for e := 0; e < m; e++ {
		cu, cv := toCoarse[g.eu[e]], toCoarse[g.ev[e]]
		if cu != cv {
			start[cu+1]++
			start[cv+1]++
			continue
		}
		if lwgt == nil {
			lwgt = make([]float64, nc)
		}
		lwgt[cu] += g.ewgt[e]
	}
	if g.lwgt != nil {
		for v, l := range g.lwgt {
			if l > 0 {
				if lwgt == nil {
					lwgt = make([]float64, nc)
				}
				lwgt[toCoarse[v]] += l
			}
		}
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	nbr := make([]int32, start[nc])
	wt := make([]float64, start[nc])
	pos := make([]int32, nc)
	copy(pos, start[:nc])
	for e := 0; e < m; e++ {
		cu, cv := toCoarse[g.eu[e]], toCoarse[g.ev[e]]
		if cu == cv {
			continue
		}
		w := g.ewgt[e]
		nbr[pos[cu]], wt[pos[cu]] = cv, w
		pos[cu]++
		nbr[pos[cv]], wt[pos[cv]] = cu, w
		pos[cv]++
	}

	// Merge each bucket's parallel arcs in place, in bucket order: slot[d]
	// is where neighbor d's entry sits if it is at or past the current
	// row's start. Both arcs of a coarse edge fold the same fine edges in
	// the same order, so they carry identical weights.
	xadj := make([]int32, nc+1)
	slot := pos // reused as the merge slot table
	for c := range slot {
		slot[c] = -1
	}
	out := int32(0)
	for c := 0; c < nc; c++ {
		row := out
		for i := start[c]; i < start[c+1]; i++ {
			d, w := nbr[i], wt[i]
			if s := slot[d]; s >= row {
				wt[s] += w
				continue
			}
			slot[d] = out
			nbr[out], wt[out] = d, w
			out++
		}
		xadj[c+1] = out
	}

	cg := &Graph{xadj: xadj, vwgt: vwgt, lwgt: lwgt}
	cg.adjncy, cg.adjwgt = transposeRows(xadj, nbr, wt)
	if err := cg.rebuildDerived(); err != nil {
		return nil, fmt.Errorf("graph: contraction: %w", err)
	}
	return cg, nil
}

// transposeRows returns the adjacency of a symmetric CSR (rows in any
// order, both arcs of an edge carrying the same weight) with every row in
// ascending neighbor order, the canonical order rebuildDerived checks:
// walking the rows in ascending vertex id and appending each arc to its
// neighbor's row is a linear-time counting sort of every row at once.
func transposeRows(xadj, nbr []int32, wt []float64) ([]int32, []float64) {
	n := len(xadj) - 1
	arcs := xadj[n]
	adjncy := make([]int32, arcs)
	adjwgt := make([]float64, arcs)
	pos := make([]int32, n)
	copy(pos, xadj[:n])
	for u := 0; u < n; u++ {
		for i := xadj[u]; i < xadj[u+1]; i++ {
			v := nbr[i]
			adjncy[pos[v]], adjwgt[pos[v]] = int32(u), wt[i]
			pos[v]++
		}
	}
	return adjncy, adjwgt
}
