package core

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/percolation"
	"repro/internal/rng"
)

// Structural operators of the fusion-fission method: atom selection, fusion
// partner choice (by size, distance and temperature), percolation fission,
// ejection of loosely bound nucleons, and nucleon reabsorption (nfusion).

// chooseAtom returns a uniformly random non-empty part id, or -1.
func chooseAtom(p *partition.P, r *rand.Rand) int {
	if p.NumParts() == 0 {
		return -1
	}
	return p.NthNonEmpty(r.Intn(p.NumParts()))
}

// choosePartner picks the atom to fuse with `atom`. The paper selects it
// "according to its size, its distance to the first one, and temperature":
// the distance between two atoms is the inverse of the connecting edge
// weight (infinite when unconnected), so the selection probability is
// proportional to the connection weight; high temperature tilts the draw
// toward big partners (hot plasma fuses heavy nuclei more easily). Partners
// whose combined weight would exceed maxVW are excluded (0 disables) so
// that size-insensitive objectives cannot grow one giant atom.
func choosePartner(p *partition.P, atom int, tFrac, maxVW float64, r *rand.Rand) int {
	conn := p.ConnectedParts(atom)
	if len(conn) == 0 {
		return -1
	}
	ownVW := p.PartVertexWeight(atom)
	meanSize := float64(p.Graph().NumVertices()) / float64(maxInt(1, p.NumParts()))
	ids := make([]int, 0, len(conn))
	weights := make([]float64, 0, len(conn))
	for b, w := range conn {
		if maxVW > 0 && ownVW+p.PartVertexWeight(b) > maxVW {
			continue
		}
		ids = append(ids, b)
		bias := 1 + tFrac*float64(p.PartSize(b))/meanSize
		weights = append(weights, w*bias)
	}
	// Map iteration order is random; make the draw deterministic by seed.
	sortPairs(ids, weights)
	pick := rng.WeightedChoice(r, weights)
	if pick < 0 {
		return -1
	}
	return ids[pick]
}

func sortPairs(ids []int, weights []float64) {
	for i := 1; i < len(ids); i++ {
		id, w := ids[i], weights[i]
		j := i - 1
		for j >= 0 && ids[j] > id {
			ids[j+1], weights[j+1] = ids[j], weights[j]
			j--
		}
		ids[j+1], weights[j+1] = id, w
	}
}

// fuse merges partner into atom and returns the merged part id.
func fuse(p *partition.P, atom, partner int) int {
	p.MergeParts(atom, partner)
	return atom
}

// fissionSplit cuts the given atom in two with percolation (section 4.4):
// two seeds are chosen as a farthest pair inside the atom's induced
// subgraph and the liquids split it. Returns the new part id, or -1 if the
// atom cannot be split. When usePercolation is false (ablation), the split
// is a random balanced one.
func fissionSplit(p *partition.P, atom int, usePercolation bool, r *rand.Rand) int {
	members := p.VerticesOf(atom)
	if len(members) < 2 {
		return -1
	}
	slot := p.EmptySlot()
	if slot < 0 {
		return -1
	}
	var side []int32
	if usePercolation {
		sub := graph.Induced(p.Graph(), members)
		seeds := graph.FarthestPointSeeds(sub.G, r.Intn(len(members)), 2)
		if len(seeds) < 2 {
			// Disconnected or degenerate: split by component membership.
			side = fallbackSplit(sub.G, len(members))
		} else {
			side = percolation.Bisect(sub.G, seeds[0], seeds[1])
		}
	} else {
		side = make([]int32, len(members))
		for i := range side {
			side[i] = int32(r.Intn(2))
		}
	}
	moved := 0
	for i, v := range members {
		if side[i] == 1 {
			p.Move(int(v), slot)
			moved++
		}
	}
	if moved == 0 || moved == len(members) {
		// Degenerate split: force one vertex across so both halves exist.
		p.Move(int(members[0]), pickSide(moved, atom, slot))
	}
	return slot
}

func pickSide(moved, atom, slot int) int {
	if moved == 0 {
		return slot
	}
	return atom
}

// fallbackSplit separates the first connected component from the rest.
func fallbackSplit(sub *graph.Graph, n int) []int32 {
	comp, count := graph.Components(sub)
	side := make([]int32, n)
	if count < 2 {
		for i := n / 2; i < n; i++ {
			side[i] = 1
		}
		return side
	}
	for i, c := range comp {
		if c != comp[0] {
			side[i] = 1
		}
	}
	return side
}

// selectEjections returns up to j vertices of the atom that are the most
// loosely bound: smallest internal-minus-external connection, the nucleons
// a nuclear event would spray out, loosest first. Vertices are only ejected
// while the atom keeps at least one member.
func selectEjections(p *partition.P, atom, j int) []int {
	size := p.PartSize(atom)
	if j <= 0 || size <= 1 {
		return nil
	}
	if j > size-1 {
		j = size - 1
	}
	// looserThan is a strict total order and j is at most maxEject, so
	// keeping the j loosest by insertion selects exactly the prefix a full
	// sort of the atom would.
	best := make([]ejectCand, 0, j)
	g := p.Graph()
	for _, v := range p.VerticesOf(atom) {
		internal := p.ConnectionToPart(int(v), atom)
		external := g.WeightedDegree(int(v)) - internal
		c := ejectCand{v: int(v), bind: internal - external, bound: external > 0}
		switch {
		case len(best) < j:
			best = append(best, c)
		case c.looserThan(best[j-1]):
			best[j-1] = c
		default:
			continue
		}
		for i := len(best) - 1; i > 0 && best[i].looserThan(best[i-1]); i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.v
	}
	return out
}

// ejectCand scores how loosely a nucleon is bound to its atom.
type ejectCand struct {
	v     int
	bind  float64 // internal minus external connection weight
	bound bool    // has any external connection
}

// looserThan orders candidates loosest-first, preferring nucleons with
// external contacts, which can be reabsorbed meaningfully.
func (a ejectCand) looserThan(b ejectCand) bool {
	if a.bound != b.bound {
		return a.bound
	}
	if a.bind != b.bind {
		return a.bind < b.bind
	}
	return a.v < b.v
}

// nfusion reabsorbs a free nucleon into the connected atom with the
// strongest bond, excluding `exclude` (its previous atom) when another
// option exists and skipping atoms already heavier than the soft cap
// maxPartVW. Returns the receiving part id.
func (s *search) nfusion(v int, exclude int) int {
	p := s.cur
	bestPart, bestW := -1, 0.0
	s.parts.reset()
	cands := s.cands[:0]
	own := p.Part(v)
	for _, u := range s.g.Neighbors(v) {
		b := p.Part(int(u))
		if b == partition.Unassigned || b == own || !s.parts.add(b) {
			continue
		}
		cands = append(cands, b)
	}
	s.cands = cands
	vw := s.g.VertexWeight(v)
	for _, b := range cands {
		if b == exclude && len(cands) > 1 {
			continue
		}
		if s.maxPartVW > 0 && p.PartVertexWeight(b)+vw > s.maxPartVW {
			continue
		}
		if w := p.ConnectionToPart(v, b); w > bestW {
			bestPart, bestW = b, w
		}
	}
	if bestPart >= 0 && p.PartSize(own) > 1 {
		p.Move(v, bestPart)
	}
	return p.Part(v)
}

// partSet is a reusable set of part ids, for deduplicating the parts around
// one vertex: emptying it is a generation bump, not a fresh map.
type partSet struct {
	gen   uint32
	stamp []uint32 // stamp[a] == gen while a is in the set
}

// reset empties the set.
func (ps *partSet) reset() {
	if ps.gen++; ps.gen == 0 { // wrapped: old stamps could alias
		clear(ps.stamp)
		ps.gen = 1
	}
}

// add inserts a and reports whether it was absent.
func (ps *partSet) add(a int) bool {
	if ps.stamp[a] == ps.gen {
		return false
	}
	ps.stamp[a] = ps.gen
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
