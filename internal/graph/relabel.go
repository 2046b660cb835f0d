package graph

import "fmt"

// Relabel returns a graph isomorphic to g with vertex v renumbered to
// perm[v]. Edge weights, vertex weights and self-loops ride along, so every
// partition statistic of an assignment maps through the permutation
// unchanged; the unit-weight fast-path flags are re-detected from the same
// values and therefore survive. perm must be a bijection on the vertex ids
// (order.IsPermutation).
//
// A bijection is a contraction with nothing to merge, so the relabeled
// graph is Contract's quotient under perm: assembled straight into CSR, each
// adjacency list in ascending neighbor order — exactly the invariant the
// locality orderings in internal/order are chosen to exploit: after
// relabeling with order.Locality, ascending neighbor ids are also
// cache-adjacent ids. With no parallel edges nothing is summed, and the
// result is bit for bit the graph a Builder fed the relabeled edges builds.
func Relabel(g *Graph, perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: relabel permutation has %d entries for %d vertices", len(perm), n)
	}
	// Validate the bijection up front: a duplicated target would otherwise
	// silently merge two distinct vertices' edges into one adjacency.
	seen := make([]bool, n)
	for v, p := range perm {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("graph: relabel maps vertex %d to out-of-range id %d", v, p)
		}
		if seen[p] {
			return nil, fmt.Errorf("graph: relabel maps two vertices to id %d", p)
		}
		seen[p] = true
	}
	return Contract(g, perm, n)
}
