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
// The cut fine edges are bucketed by coarse endpoint straight from g's edge
// arrays and merged by the same core as Build, so the CSR is assembled in
// O(n + m + nc) with these fold orders:
//
//   - a coarse vertex weight is 0 + its members' weights in ascending fine id;
//   - a coarse edge weight is a left fold of its fine edges' weights in
//     ascending fine edge id (Builder's insertion-order merge);
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
	// ascending edge id, the order their weights fold in; fold the internal
	// ones into self-loops on the way.
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
	for v, l := range g.lwgt {
		if l > 0 {
			if lwgt == nil {
				lwgt = make([]float64, nc)
			}
			lwgt[toCoarse[v]] += l
		}
	}
	nbr, wt, slot := buckets(start)
	for e := 0; e < m; e++ {
		cu, cv := toCoarse[g.eu[e]], toCoarse[g.ev[e]]
		if cu == cv {
			continue
		}
		w := g.ewgt[e]
		nbr[slot[cu]], wt[slot[cu]] = cv, w
		slot[cu]++
		nbr[slot[cv]], wt[slot[cv]] = cu, w
		slot[cv]++
	}
	cg, err := mergeRows(start, nbr, wt, slot, vwgt, lwgt)
	if err != nil {
		return nil, fmt.Errorf("graph: contraction: %w", err)
	}
	return cg, nil
}

// assemble is the linear-time CSR assembly behind Build (and so WithEdits
// and every generator). It buckets both arcs of each buffered edge by
// endpoint with a stable counting sort, so every row lists its arcs in
// insertion order, and hands the rows to mergeRows. Edges may be stored in
// either orientation. The edge buffer is consumed; errors carry no prefix.
func (b *Builder) assemble() (*Graph, error) {
	start := make([]int32, b.n+1)
	for _, e := range b.edges {
		start[e.u+1]++
		start[e.v+1]++
	}
	nbr, wt, slot := buckets(start)
	for _, e := range b.edges {
		nbr[slot[e.u]], wt[slot[e.u]] = e.v, e.w
		slot[e.u]++
		nbr[slot[e.v]], wt[slot[e.v]] = e.u, e.w
		slot[e.v]++
	}
	b.edges = nil
	return mergeRows(start, nbr, wt, slot, b.vwgt, b.lwgt)
}

// buckets turns start, holding each row's arc count at start[v+1], into
// row offsets, and returns the arc arrays to scatter into plus each row's
// write cursor.
func buckets(start []int32) (nbr []int32, wt []float64, slot []int32) {
	n := len(start) - 1
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	slot = make([]int32, n)
	copy(slot, start[:n])
	return make([]int32, start[n]), make([]float64, start[n]), slot
}

// mergeRows is the merge step Build and Contract share. It merges each
// bucketed row's parallel arcs in place through a slot table, left-folding their weights in bucket order (both arcs of an
// edge fold the same sequence, so they stay equal), and hands the merged
// rows to finish. start becomes the xadj; slot is scratch of one entry per
// vertex.
func mergeRows(start, nbr []int32, wt []float64, slot []int32, vwgt, lwgt []float64) (*Graph, error) {
	// slot[d] is where neighbor d's arc sits if it is at or past the
	// current row's output start.
	for v := range slot {
		slot[v] = -1
	}
	out, lo := int32(0), int32(0)
	for v := range slot {
		row, hi := out, start[v+1]
		for i := lo; i < hi; i++ {
			d, w := nbr[i], wt[i]
			if s := slot[d]; s >= row {
				wt[s] += w
				continue
			}
			slot[d] = out
			nbr[out], wt[out] = d, w
			out++
		}
		start[v+1], lo = out, hi
	}
	return finish(start, nbr, wt, vwgt, lwgt)
}

// finish completes a graph from rows that list every edge once from each
// endpoint with equal weights, in any order: transposeRows sorts every
// row, and rebuildDerived validates the result and derives the rest. Every
// row's arc count must equal the number of arcs naming its vertex, or the
// transposition overruns. The arrays are consumed; errors carry no prefix.
func finish(xadj, nbr []int32, wt []float64, vwgt, lwgt []float64) (*Graph, error) {
	adjncy, adjwgt := transposeRows(xadj, nbr, wt)
	g := &Graph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt, lwgt: lwgt}
	if err := g.rebuildDerived(); err != nil {
		return nil, err
	}
	return g, nil
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
