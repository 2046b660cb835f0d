package core

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
)

// search carries the mutable state of one fusion-fission run.
type search struct {
	g    *graph.Graph
	k    int
	opt  Options
	r    *rand.Rand
	laws *laws

	energy *energyModel
	cur    *partition.P
	// maxPartVW softly caps vertex-level flows into any single atom so
	// that size-insensitive objectives (Cut) cannot grow one giant part;
	// the sets must stay "of roughly equal size" (section 1).
	maxPartVW float64

	bestOverall  *partition.P // lowest scaled energy, any atom count
	bestOverallE float64
	bestAtK      *partition.P // lowest raw objective among exactly-K states
	bestAtKE     float64
	bestPerK     map[int]float64

	// Reusable scratch for the per-vertex operators: the parts around one
	// vertex, and nfusion's candidate list.
	parts partSet
	cands []int
	// partnerless[a] is 1 + cur.Mutations() when initialization last found
	// atom a without a fusion partner, 0 if never.
	partnerless []uint64
}

func newSearch(g *graph.Graph, k int, opt Options) *search {
	// Ncut and Mcut penalize starved parts through their denominators, so
	// atoms self-balance and a loose cap suffices; plain Cut has no such
	// pressure — there the "roughly equal size" constraint of section 1 is
	// what makes min-cut non-trivial, so the cap is tight.
	capFactor := 2.0
	if opt.Objective == objective.Cut {
		capFactor = 1.3
	}
	// The molecule is opt.Initial when given, else the empty partition
	// Algorithm 2 fills. Either way it tracks its atoms' members, so every
	// event costs time in the size of the atoms it touches.
	cur := partition.New(g, g.NumVertices())
	if opt.Initial != nil {
		cur = opt.Initial.Clone()
	}
	cur.TrackMembers()
	return &search{
		g:            g,
		k:            k,
		opt:          opt,
		r:            rng.New(opt.Seed),
		laws:         newLaws(g.NumVertices()),
		energy:       newEnergyModel(g, opt.Objective, k),
		cur:          cur,
		maxPartVW:    capFactor * g.TotalVertexWeight() / float64(k),
		bestOverallE: math.Inf(1),
		bestAtKE:     math.Inf(1),
		bestPerK:     make(map[int]float64),
		parts:        partSet{stamp: make([]uint32, cur.Capacity())},
		partnerless:  make([]uint64, cur.Capacity()),
	}
}

// afterEvent updates the incumbents and the trace from the current state.
// The first state seen is always recorded, even at infinite energy (e.g.
// K = n, where every exactly-K molecule is all singletons and Mcut/Ncut
// diverge) — a nil incumbent must never survive a visit to a valid state.
func (s *search) afterEvent(loop *engine.Loop) {
	e := s.energy.energy(s.cur)
	if s.bestOverall == nil || e < s.bestOverallE {
		s.bestOverallE = e
		if s.bestOverall == nil {
			s.bestOverall = s.cur.Clone()
		} else {
			s.bestOverall.CopyFrom(s.cur)
		}
	}
	kNow := s.cur.NumParts()
	raw := s.energy.raw(s.cur)
	if old, ok := s.bestPerK[kNow]; !ok || raw < old {
		s.bestPerK[kNow] = raw
	}
	if kNow == s.k && (s.bestAtK == nil || raw < s.bestAtKE) {
		s.bestAtKE = raw
		if s.bestAtK == nil {
			s.bestAtK = s.cur.Clone()
		} else {
			s.bestAtK.CopyFrom(s.cur)
		}
		loop.Improved(raw, s.bestAtK.Compact)
	}
}

// adoptForeign replaces the current molecule with a portfolio peer's
// incumbent when it strictly beats this worker's own best at K — the
// KaFFPaE-style re-seeding, applied at the freezing point where the search
// restarts from an incumbent anyway. Reports whether it adopted.
func (s *search) adoptForeign(loop *engine.Loop) bool {
	assign, e, ok := loop.Foreign()
	if !ok || (s.bestAtK != nil && e >= s.bestAtKE) {
		return false
	}
	p, err := partition.FromAssignment(s.g, assign, s.cur.Capacity())
	if err != nil {
		return false
	}
	s.cur.CopyFrom(p)
	return true
}

// initialize is Algorithm 2: the run starts from the molecule in which every
// vertex is its own atom (maximal energy) and fusion events — with law-drawn
// nucleon ejections, but no temperature and no nucleon-induced fission —
// group the atoms until the target count is reached. It reports false if ctx
// was cancelled before the molecule was fully condensed.
func (s *search) initialize(ctx context.Context) bool {
	n := s.g.NumVertices()
	for v := 0; v < n; v++ {
		s.cur.Assign(v, v) // atom per vertex
	}
	poll := engine.NewPoll(ctx, 64)
	nBar := float64(n) / float64(s.k)
	maxSteps := 8 * n // generous: each fusion removes an atom
	for step := 0; step < maxSteps && s.cur.NumParts() > s.k; step++ {
		if poll.Due() {
			return false
		}
		atom := chooseAtom(s.cur, s.r)
		if atom < 0 {
			break
		}
		prevE := s.energy.energy(s.cur)
		// Initialization heuristic: fuse while the atom is below the mean
		// size, occasionally split clearly oversized atoms.
		size := float64(s.cur.PartSize(atom))
		if size > 2*nBar && s.cur.PartSize(atom) >= 2 && s.r.Float64() < 0.5 {
			eject := s.laws.draw(lawFission, int(size), s.r.Float64())
			slot := fissionSplit(s.cur, atom, !s.opt.DisablePercolationFission, s.r)
			if slot >= 0 {
				for _, v := range selectEjections(s.cur, atom, eject) {
					s.nfusion(v, atom)
				}
				if !s.opt.DisableLawLearning {
					s.laws.update(lawFission, int(size), eject, s.energy.energy(s.cur) < prevE, s.opt.LawDelta)
				}
			}
			continue
		}
		// choosePartner depends only on the molecule and draws nothing
		// when it finds no partner, so an atom found partnerless stays so
		// until the molecule mutates, and skipping the rescan leaves the
		// random stream untouched.
		if s.partnerless[atom] == s.cur.Mutations()+1 {
			continue
		}
		partner := choosePartner(s.cur, atom, 0, s.maxPartVW, s.r)
		if partner < 0 {
			s.partnerless[atom] = s.cur.Mutations() + 1
			continue
		}
		merged := fuse(s.cur, atom, partner)
		msize := s.cur.PartSize(merged)
		eject := s.laws.draw(lawFusion, msize, s.r.Float64())
		for _, v := range selectEjections(s.cur, merged, eject) {
			s.nfusion(v, merged)
		}
		if !s.opt.DisableLawLearning {
			s.laws.update(lawFusion, msize, eject, s.energy.energy(s.cur) < prevE, s.opt.LawDelta)
		}
	}
	return true
}

// relaxAtoms runs one pass of nucleon relaxation over the boundary of the
// given atom and its neighborhood: every nucleon of the atom whose move to a
// connected atom lowers the scaled energy is reabsorbed there (the same
// nucleon-movement mechanism as ejection, applied until the event's region
// is locally stable). Part counts never change — a nucleon never leaves a
// singleton — so the penalty term is constant across the candidate moves.
func (s *search) relaxAtoms(atom int) {
	if s.cur.PartSize(atom) == 0 {
		return
	}
	for _, v32 := range s.cur.VerticesOf(atom) {
		v := int(v32)
		from := s.cur.Part(v)
		if s.cur.PartSize(from) <= 1 {
			continue
		}
		if bestTo := s.bestRelaxMove(v, from); bestTo >= 0 {
			s.cur.Move(v, bestTo)
		}
	}
}

// bestRelaxMove returns the atom v (in `from`) should move to — the one
// among those it touches, below the soft weight cap, whose move lowers the
// scaled energy most — or -1 if no move lowers it. moveDelta makes each
// candidate O(deg v) instead of a full objective evaluation.
func (s *search) bestRelaxMove(v, from int) int {
	bestTo, bestDelta := -1, -1e-12
	vw := s.g.VertexWeight(v)
	s.parts.reset()
	s.parts.add(from)
	for _, u := range s.g.Neighbors(v) {
		b := s.cur.Part(int(u))
		if b == partition.Unassigned || !s.parts.add(b) {
			continue
		}
		if s.cur.PartVertexWeight(b)+vw > s.maxPartVW {
			continue
		}
		if d := s.energy.moveDelta(s.cur, v, from, b); d < bestDelta {
			bestTo, bestDelta = b, d
		}
	}
	return bestTo
}

// relaxAll sweeps every atom once with nucleon relaxation — the freezing-
// point consolidation: at minimal temperature every loose nucleon settles
// into its best-bound atom (section 4.2's cold regime, where ejected
// nucleons are "incorporated into atoms"). Runs once per temperature cycle.
func (s *search) relaxAll() {
	for pass := 0; pass < 2; pass++ {
		moved := false
		for v := 0; v < s.g.NumVertices(); v++ {
			from := s.cur.Part(v)
			if from == partition.Unassigned || s.cur.PartSize(from) <= 1 {
				continue
			}
			if bestTo := s.bestRelaxMove(v, from); bestTo >= 0 {
				s.cur.Move(v, bestTo)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// normalizeToK forces the current partition to exactly k non-empty parts by
// merging the most-connected pairs (k' > k) or percolation-splitting the
// largest atoms (k' < k).
func (s *search) normalizeToK() {
	for s.cur.NumParts() > s.k {
		a, b := bestMergePair(s.cur)
		if a < 0 {
			// No connected pair (disconnected leftovers): merge the two
			// smallest parts.
			parts := s.cur.NonEmptyParts()
			sort.Slice(parts, func(i, j int) bool {
				return s.cur.PartSize(parts[i]) < s.cur.PartSize(parts[j])
			})
			a, b = parts[0], parts[1]
		}
		s.cur.MergeParts(a, b)
	}
	for s.cur.NumParts() < s.k {
		largest := -1
		for _, a := range s.cur.NonEmptyParts() {
			if largest < 0 || s.cur.PartSize(a) > s.cur.PartSize(largest) {
				largest = a
			}
		}
		if largest < 0 || s.cur.PartSize(largest) < 2 {
			break
		}
		if fissionSplit(s.cur, largest, !s.opt.DisablePercolationFission, s.r) < 0 {
			break
		}
	}
}

// repairDegenerate runs after the event loop when every exactly-K state
// the search visited had a part with cut but no internal weight, so that
// the best at K has Mcut = +Inf. Initialization on a large graph can end
// with singleton and other tiny atoms among its K, and a budget-driven run
// that stops before the events absorb them would otherwise return that
// state, or not, depending on how many events the budget held. Starting
// from the best at K, the repair repeatedly merges the part with the worst
// objective term into the neighbouring part it shares the most weight with
// and splits the largest part to get back to K, for as long as that lowers
// the smoothed energy (at most K rounds); the best at K follows whenever
// the raw objective drops below it. The search trajectory is untouched:
// only the returned partition changes, and only when it was infinite.
func (s *search) repairDegenerate(loop *engine.Loop) {
	if s.bestAtK == nil || !math.IsInf(s.bestAtKE, 1) {
		return
	}
	s.cur.CopyFrom(s.bestAtK)
	prev := s.energy.energy(s.cur)
	for round := 0; round < s.k; round++ {
		worst, worstT := -1, -1.0
		for _, a := range s.cur.NonEmptyParts() {
			if t := s.opt.Objective.Term(s.cur.PartCut(a), s.cur.PartInternalOrdered(a), 0); t > worstT {
				worst, worstT = a, t
			}
		}
		to, toW := -1, 0.0
		for b, w := range s.cur.ConnectedParts(worst) {
			if w > toW || (w == toW && b < to) {
				to, toW = b, w
			}
		}
		if to < 0 {
			return
		}
		s.cur.MergeParts(to, worst)
		s.normalizeToK()
		e := s.energy.energy(s.cur)
		if s.cur.NumParts() != s.k || !(e < prev) {
			return
		}
		prev = e
		s.afterEvent(loop)
	}
}

// bestMergePair returns the connected pair of parts whose merge costs the
// least objective increase per the connection weight — i.e. the pair with
// the strongest mutual connection (smallest paper-distance). Ties go to the
// lexicographically smallest pair, whatever the map iteration order.
func bestMergePair(p *partition.P) (int, int) {
	bestA, bestB, bestW := -1, -1, -1.0
	for _, a := range p.NonEmptyParts() {
		for b, w := range p.ConnectedParts(a) {
			if b <= a {
				continue
			}
			if w > bestW || (w == bestW && a == bestA && b < bestB) {
				bestA, bestB, bestW = a, b, w
			}
		}
	}
	return bestA, bestB
}
