package core

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/score"
)

// Energy scaling (section 4.1). The objective functions of section 1 are
// defined for a fixed part count and generally shrink as parts merge (no
// partition at all has the smallest value), so fusion-fission rescales the
// objective with a function shaped like the nuclear binding-energy curve:
// partitions of equal quality but different atom counts get comparable
// energies, with the minimum anchored at the target count K. Below K the
// penalty rises steeply (light nuclei: binding energy climbs fast), above K
// it rises gently (heavy nuclei: slow decline). At exactly K the penalty is
// 1, so energies there are the raw objective values reported in Table 1.
//
// The model is a thin binding-energy wrapper over the shared scoring layer
// (internal/score): per-move deltas delegate to score.Delta, and the
// whole-molecule energy is EvaluateSmoothed(p, eps)*penalty(NumParts),
// computed without an O(n) scan. The model caches each part's smoothed Term
// and, on each evaluation, refreshes only the parts the partition stamps as
// changed since the previous one (partition.PartChangedAt), then folds the
// cached terms over the non-empty parts in ascending id order — exactly
// EvaluateSmoothed's summation, so the law-learning comparison newE < prevE
// sees bit-equal values. The result is memoized on the partition's mutation
// counter, so re-evaluating an unchanged molecule is free. A different
// partition, or an untracked one (every part reports "changed now"), simply
// refreshes every term, so the energy is exact on whatever it is handed.
// score.Tracker is deliberately not used: its compensated running sum
// differs from the ascending fold in the low bits, which would flip
// law-learning comparisons.

type energyModel struct {
	obj    objective.Objective
	k      int     // target atom count
	eps    float64 // smoothing for degenerate parts
	cBelow float64
	cAbove float64

	// The evaluation cache: terms[a] is part a's smoothed Term in `of` as
	// of mutation count `seen`, for every part non-empty at that point;
	// value is the scaled energy then.
	of    *partition.P
	seen  uint64
	value float64
	terms []float64
}

func newEnergyModel(g *graph.Graph, obj objective.Objective, k int) *energyModel {
	n := g.NumVertices()
	eps := 1e-6
	if n > 0 {
		eps = 1e-6 * (2 * g.TotalEdgeWeight() / float64(n))
	}
	return &energyModel{obj: obj, k: k, eps: eps, cBelow: 8, cAbove: 2}
}

// penalty implements the binding-energy-shaped scaling.
func (e *energyModel) penalty(numAtoms int) float64 {
	k := float64(e.k)
	d := float64(numAtoms) - k
	if d < 0 {
		rel := -d / k
		return 1 + e.cBelow*rel*rel
	}
	rel := d / k
	return 1 + e.cAbove*rel
}

// energy returns the scaled objective of p,
// EvaluateSmoothed(p, eps)*penalty(NumParts) bit for bit.
func (e *energyModel) energy(p *partition.P) float64 {
	m := p.Mutations()
	if p == e.of && m == e.seen {
		return e.value
	}
	fresh := p != e.of
	if fresh {
		e.of = p
		if len(e.terms) < p.Capacity() {
			e.terms = make([]float64, p.Capacity())
		}
	}
	total := 0.0
	for i, w := range p.Occupancy() {
		for ; w != 0; w &= w - 1 {
			a := i<<6 + bits.TrailingZeros64(w)
			if fresh || p.PartChangedAt(a) > e.seen {
				e.terms[a] = e.obj.Term(p.PartCut(a), p.PartInternalOrdered(a), e.eps)
			}
			total += e.terms[a]
		}
	}
	e.seen = m
	e.value = total * e.penalty(p.NumParts())
	return e.value
}

// raw returns the unscaled, unsmoothed objective (for reporting).
func (e *energyModel) raw(p *partition.P) float64 {
	return e.obj.Evaluate(p)
}

// moveDelta returns the change of the scaled energy if vertex v moved from
// part a to part b, in O(deg v), without mutating p. Both parts must be
// non-empty and the move must not empty a (the part count, and hence the
// binding-energy penalty, stays constant).
func (e *energyModel) moveDelta(p *partition.P, v, a, b int) float64 {
	return score.Delta(p, e.obj, e.eps, v, a, b) * e.penalty(p.NumParts())
}
