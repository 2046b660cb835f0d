// Package partition maintains k-way partition state with O(deg) incremental
// updates of the per-part statistics every objective in the paper needs:
//
//	cut(A, V-A)  — total weight of edges with exactly one endpoint in A
//	W(A)         — paper's internal weight: sum over ordered pairs (u,v) in
//	               A x A of w(u,v), i.e. twice the unordered internal weight
//	|A|, vw(A)   — vertex count and vertex weight of A
//
// Parts are slots in [0, Capacity); slots may be empty, which is what lets
// the fusion-fission metaheuristic vary the number of "atoms" during the
// search without reallocating. NumParts reports the non-empty count; an
// occupancy bitset (one bit per slot, set while the part is non-empty) makes
// the non-empty slots enumerable, the n-th of them selectable and an empty
// slot findable in O(Capacity/64) without allocating.
//
// Fusion-fission also needs a part's members and "what changed since I last
// looked" in time proportional to the part, not to the graph. TrackMembers
// arms both: an intrusive member list per part (so VerticesOf, MergeParts
// and ConnectedParts walk the part instead of all n vertices) and a per-part
// change stamp against the partition-wide mutation counter (so a cache of
// per-part terms can refresh only the parts touched since it was filled).
// Untracked partitions — annealing, refinement, bulk construction — pay one
// predicted branch per mutation for the option.
//
// Vertex self-loop weights (graph.Graph.VertexLoop — the internal weight a
// coarsening contraction folded into a coarse vertex) count toward the
// internal weight of the part holding the vertex, so W(A), Ncut and Mcut of
// a coarse partition agree exactly with those of the fine partition it
// projects to. Loops never contribute to any cut.
package partition

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Unassigned is the part id of a vertex that has not been placed yet.
const Unassigned = -1

// P is a mutable k-way partition of a fixed graph.
type P struct {
	g        *graph.Graph
	part     []int32
	size     []int32   // vertices per part
	vw       []float64 // vertex weight per part
	internal []float64 // unordered internal edge weight per part (W(A)/2)
	cut      []float64 // cut(A, V-A) per part
	assigned int
	nonEmpty int
	crossing float64 // total crossing edge weight, each edge counted once

	// occ has bit a set exactly while part a is non-empty; bits past the
	// capacity stay zero.
	occ []uint64
	// mutations counts state changes: every Assign, effective Move or
	// MoveConns, and CopyFrom bumps it, so an unchanged count means
	// unchanged statistics.
	mutations uint64

	// Member lists and change stamps, armed by TrackMembers. memHead[a] is
	// the first member of part a (-1 when empty); memNext/memPrev link the
	// members of one part, in no particular order. changed[a] is the
	// mutations count at part a's last change.
	track   bool
	memHead []int32
	memNext []int32
	memPrev []int32
	changed []uint64

	// part16 mirrors part with int16 entries whenever the capacity fits
	// (part ids < 32768 — always, in practice). The mirror is half the
	// footprint of part, so the random per-neighbor assignment loads of the
	// score.moveConns hot loop stay L1-resident on graphs twice as large;
	// maintenance is a single extra store per mutation.
	part16 []int16

	// Argmin support for MinInternalPart, armed by its first call
	// (minTrack): callers that never ask for the argmin — refinement
	// sweeps, bulk construction — pay one predicted branch per mutation
	// and nothing else. minKey mirrors each non-empty part's internal
	// weight through the monotone float-to-uint64 map of minKeyOf (empty
	// slots hold the all-ones sentinel), so each mutation costs one
	// unconditional store and the argmin query is a short compare-and-cmov
	// integer reduction over one contiguous array instead of the
	// NonEmptyParts allocate-and-scan (with a method call per part) the
	// old hot path paid per proposal. Only a bulk CopyFrom sets minDirty
	// for a lazy refill.
	minTrack bool
	minDirty bool
	minKey   []uint64
	// minNarrow selects the composite-key scan: on unit-edge-weight,
	// loop-free graphs every part's internal weight is an exact small
	// integer, so (weight << 32 | part id) packs the full lexicographic
	// (weight, lowest-id) order into one uint64 — the plain min reduction
	// over minKeyC IS the argmin, with no index-recovery pass and no
	// vector kernel needed. Weighted or loop-carrying graphs keep the
	// bit-mapped float keys in minKey and the AVX2 scan.
	minNarrow bool
	minKeyC   []uint64
}

// New returns a partition of g with the given part capacity and every vertex
// unassigned.
func New(g *graph.Graph, capacity int) *P {
	if capacity <= 0 {
		panic("partition: capacity must be positive")
	}
	p := &P{
		g:        g,
		part:     make([]int32, g.NumVertices()),
		size:     make([]int32, capacity),
		vw:       make([]float64, capacity),
		internal: make([]float64, capacity),
		cut:      make([]float64, capacity),
		occ:      make([]uint64, (capacity+63)/64),
	}
	if capacity <= math.MaxInt16 {
		// One padding entry past the end: the score package's gathered
		// conns kernel loads 32-bit lanes at part16[u], reading two bytes
		// beyond the last vertex's entry. The pad keeps that read inside
		// the allocation without the kernel needing a tail fixup.
		p.part16 = make([]int16, g.NumVertices()+1)[:g.NumVertices()]
		for i := range p.part16 {
			p.part16[i] = Unassigned
		}
	}
	for i := range p.part {
		p.part[i] = Unassigned
	}
	return p
}

// FromAssignment builds a fully-assigned partition from a part id per vertex.
// Ids must lie in [0, capacity).
func FromAssignment(g *graph.Graph, assign []int32, capacity int) (*P, error) {
	if len(assign) != g.NumVertices() {
		return nil, fmt.Errorf("partition: assignment length %d != vertex count %d", len(assign), g.NumVertices())
	}
	p := New(g, capacity)
	for v, a := range assign {
		if a < 0 || int(a) >= capacity {
			return nil, fmt.Errorf("partition: vertex %d assigned to invalid part %d", v, a)
		}
		p.Assign(v, int(a))
	}
	return p, nil
}

// Graph returns the underlying graph.
func (p *P) Graph() *graph.Graph { return p.g }

// Capacity returns the number of part slots.
func (p *P) Capacity() int { return len(p.size) }

// NumParts returns the number of non-empty parts.
func (p *P) NumParts() int { return p.nonEmpty }

// NumAssigned returns how many vertices have been placed.
func (p *P) NumAssigned() int { return p.assigned }

// Complete reports whether every vertex is assigned.
func (p *P) Complete() bool { return p.assigned == p.g.NumVertices() }

// Part returns the part of v, or Unassigned.
func (p *P) Part(v int) int { return int(p.partAt(v)) }

// partAt reads v's part through the int16 mirror when one exists: the mirror
// is half the footprint of the canonical int32 array, so the random
// per-proposal lookups stay L1-resident on graphs twice as large. The mirror
// is updated alongside every part write, so the two views never disagree.
func (p *P) partAt(v int) int32 {
	if p.part16 != nil {
		return int32(p.part16[v])
	}
	return p.part[v]
}

// PartSize returns the number of vertices in part a.
func (p *P) PartSize(a int) int { return int(p.size[a]) }

// PartVertexWeight returns the total vertex weight of part a.
func (p *P) PartVertexWeight(a int) float64 { return p.vw[a] }

// PartCut returns cut(A, V-A) for part a.
func (p *P) PartCut(a int) float64 { return p.cut[a] }

// PartInternalOrdered returns the paper's W(A): the ordered-pair internal
// weight, i.e. twice the sum of the weights of edges inside a.
func (p *P) PartInternalOrdered(a int) float64 { return 2 * p.internal[a] }

// CrossingWeight returns the total weight of crossing edges, each counted
// once. The paper's Cut objective equals exactly twice this value.
func (p *P) CrossingWeight() float64 { return p.crossing }

// Assign places an unassigned vertex v into part a.
func (p *P) Assign(v, a int) {
	if p.part[v] != Unassigned {
		panic(fmt.Sprintf("partition: vertex %d already assigned", v))
	}
	p.part[v] = int32(a)
	if p.part16 != nil {
		p.part16[v] = int16(a)
	}
	p.mutations++
	if p.size[a] == 0 {
		p.nonEmpty++
		p.occ[a>>6] |= 1 << uint(a&63)
	}
	p.size[a]++
	p.vw[a] += p.g.VertexWeight(v)
	p.internal[a] += p.g.VertexLoop(v)
	p.assigned++
	if p.track {
		p.link(int32(v), a)
		p.changed[a] = p.mutations
	}
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		b := p.part[u]
		if b == Unassigned {
			continue
		}
		w := wts[i]
		if int(b) == a {
			p.internal[a] += w
		} else {
			p.cut[a] += w
			p.cut[b] += w
			p.crossing += w
		}
	}
	p.minTouch(a)
}

// Move transfers an assigned vertex v to part `to`, updating all statistics
// in O(deg(v)).
func (p *P) Move(v, to int) {
	from := int(p.partAt(v))
	if from == Unassigned {
		panic(fmt.Sprintf("partition: moving unassigned vertex %d", v))
	}
	if from == to {
		return
	}
	p.mutations++
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		b := int(p.part[u])
		w := wts[i]
		switch b {
		case Unassigned:
		case from:
			// Internal to `from` becomes crossing.
			p.internal[from] -= w
			p.cut[from] += w
			p.cut[to] += w
			p.crossing += w
		case to:
			// Crossing becomes internal to `to`.
			p.cut[from] -= w
			p.cut[to] -= w
			p.crossing -= w
			p.internal[to] += w
		default:
			// Crossing either way; only the v-side part changes.
			p.cut[from] -= w
			p.cut[to] += w
		}
	}
	p.moved(v, from, to)
}

// MoveConns is Move for callers that already scanned v's neighborhood:
// connFrom and connTo are v's total edge weight into its current part and
// into `to`, other its weight into every other assigned neighbor's part
// (exactly score.moveConns' split). The statistics update is O(1) aggregated
// arithmetic instead of a per-edge loop — the same numbers grouped
// differently, exact whenever edge weights sum without rounding (integral
// weights, as in every golden instance) and within accumulator drift
// otherwise. score.Tracker.Apply uses it to commit a move whose connection
// weights MoveDelta already computed, eliminating one of the two adjacency
// scans an accepted proposal used to pay.
func (p *P) MoveConns(v, to int, connFrom, connTo, other float64) {
	from := int(p.partAt(v))
	if from == Unassigned {
		panic(fmt.Sprintf("partition: moving unassigned vertex %d", v))
	}
	if from == to {
		return
	}
	p.mutations++
	p.internal[from] -= connFrom
	p.internal[to] += connTo
	p.cut[from] += connFrom - connTo - other
	p.cut[to] += connFrom - connTo + other
	p.crossing += connFrom - connTo
	p.moved(v, from, to)
}

// moved finishes a move of v from `from` to `to` once the edge statistics
// are updated: part ids, sizes, occupancy, vertex and loop weights, the
// argmin keys and, when tracked, the member lists and change stamps.
func (p *P) moved(v, from, to int) {
	p.part[v] = int32(to)
	if p.part16 != nil {
		p.part16[v] = int16(to)
	}
	p.size[from]--
	if p.size[from] == 0 {
		p.nonEmpty--
		p.occ[from>>6] &^= 1 << uint(from&63)
	}
	if p.size[to] == 0 {
		p.nonEmpty++
		p.occ[to>>6] |= 1 << uint(to&63)
	}
	p.size[to]++
	vw := 1.0
	if !p.g.UnitVertexWeights() {
		vw = p.g.VertexWeight(v)
	}
	p.vw[from] -= vw
	p.vw[to] += vw
	if l := p.g.VertexLoop(v); l != 0 {
		p.internal[from] -= l
		p.internal[to] += l
	}
	p.minTouch(from)
	p.minTouch(to)
	if p.track {
		p.unlink(int32(v), from)
		p.link(int32(v), to)
		p.changed[from] = p.mutations
		p.changed[to] = p.mutations
	}
}

// MergeParts moves every vertex of part b into part a, in ascending vertex
// order. No-op when a == b.
func (p *P) MergeParts(a, b int) {
	if a == b || p.size[b] == 0 {
		return
	}
	if p.track {
		for _, v := range p.VerticesOf(b) {
			p.Move(int(v), a)
		}
		return
	}
	for v := range p.part {
		if int(p.part[v]) == b {
			p.Move(v, a)
		}
	}
}

// EmptySlot returns the lowest empty part slot, or -1 if all are occupied.
func (p *P) EmptySlot() int {
	for i, w := range p.occ {
		if w != ^uint64(0) {
			// Bits past the capacity are zero, so a full last word still
			// yields a free bit — one that lies past the end.
			if a := i<<6 + bits.TrailingZeros64(^w); a < len(p.size) {
				return a
			}
			return -1
		}
	}
	return -1
}

// NonEmptyParts returns the ids of all non-empty parts in increasing order.
func (p *P) NonEmptyParts() []int {
	out := make([]int, 0, p.nonEmpty)
	for i, w := range p.occ {
		for ; w != 0; w &= w - 1 {
			out = append(out, i<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

// Occupancy returns the live occupancy bitset: bit a&63 of word a>>6 is set
// exactly while part a is non-empty. Walking the set bits word by word
// visits NonEmptyParts in the same ascending order without allocating.
// Same read-only, don't-hold-across-mutations contract as PartView.
func (p *P) Occupancy() []uint64 { return p.occ }

// NthNonEmpty returns NonEmptyParts()[i] without allocating, or -1 when i
// is out of range.
func (p *P) NthNonEmpty(i int) int {
	if i < 0 {
		return -1
	}
	for wi, w := range p.occ {
		c := bits.OnesCount64(w)
		if i >= c {
			i -= c
			continue
		}
		for ; i > 0; i-- {
			w &= w - 1
		}
		return wi<<6 + bits.TrailingZeros64(w)
	}
	return -1
}

// Mutations returns the number of state changes so far: it grows with
// every Assign, every Move or MoveConns that changes a part, and every
// CopyFrom. Equal counts on the same partition mean equal statistics.
func (p *P) Mutations() uint64 { return p.mutations }

// PartChangedAt returns the Mutations count at part a's last change. An
// untracked partition keeps no per-part stamps and reports the current
// count for every part, so a cache keyed on it refreshes everything.
func (p *P) PartChangedAt(a int) uint64 {
	if !p.track {
		return p.mutations
	}
	return p.changed[a]
}

// TrackMembers arms the per-part member lists and change stamps: from now
// on VerticesOf, MergeParts and ConnectedParts cost time in the size of the
// part instead of n, and PartChangedAt reports real per-part stamps. The
// setup is O(n + Capacity); later calls are no-ops. Clone returns an
// untracked copy; CopyFrom into a tracked partition keeps it tracked.
func (p *P) TrackMembers() {
	if p.track {
		return
	}
	p.track = true
	p.memHead = make([]int32, len(p.size))
	p.memNext = make([]int32, len(p.part))
	p.memPrev = make([]int32, len(p.part))
	p.changed = make([]uint64, len(p.size))
	p.rebuildMembers()
}

// rebuildMembers re-derives the member lists from the assignment and stamps
// every part as changed now.
func (p *P) rebuildMembers() {
	for a := range p.memHead {
		p.memHead[a] = -1
		p.changed[a] = p.mutations
	}
	for v := len(p.part) - 1; v >= 0; v-- {
		if a := p.part[v]; a != Unassigned {
			p.link(int32(v), int(a))
		}
	}
}

// link pushes v onto the front of part a's member list.
func (p *P) link(v int32, a int) {
	h := p.memHead[a]
	p.memNext[v] = h
	p.memPrev[v] = -1
	if h >= 0 {
		p.memPrev[h] = v
	}
	p.memHead[a] = v
}

// unlink removes v from part a's member list.
func (p *P) unlink(v int32, a int) {
	next, prev := p.memNext[v], p.memPrev[v]
	if prev >= 0 {
		p.memNext[prev] = next
	} else {
		p.memHead[a] = next
	}
	if next >= 0 {
		p.memPrev[next] = prev
	}
}

// MinInternalPart returns the non-empty part with the smallest internal
// weight, excluding `exclude` (pass -1 to exclude nothing); ties resolve to
// the lowest part id, and -1 is returned when no eligible part exists. The
// ordering is identical to scanning NonEmptyParts in ascending order and
// keeping the first strictly-smaller PartInternalOrdered — the annealer's
// high-temperature "feed the starving part" target — but is O(1) amortized:
// the first call arms an incrementally maintained key array that turns the
// query into a short branchless reduction, so per-proposal callers pay
// neither the allocation nor the O(capacity) method-call scan the pre-cache
// code paid.
func (p *P) MinInternalPart(exclude int) int {
	if !p.minTrack || p.minDirty {
		p.refillMinKeys()
	}
	if p.minNarrow {
		return p.minCompositeScan(exclude)
	}
	keys := p.minKey
	if useAVX2 && len(keys) >= 8 {
		// The kernel neutralizes the excluded slot in-register: storing a
		// sentinel into the array just before the vector loads would stall
		// every call on failed store-to-load forwarding.
		mk, idx := minKeyScanAVX2(&keys[0], len(keys), exclude)
		if mk == emptyMinKey {
			return -1
		}
		return idx
	}
	masked := exclude >= 0 && exclude < len(keys)
	var saved uint64
	if masked { // mask the excluded slot for the duration of the scan
		saved = keys[exclude]
		keys[exclude] = emptyMinKey
	}
	mk, idx := minKeyScanGeneric(keys)
	best := -1
	if mk != emptyMinKey {
		best = idx
	}
	if masked {
		keys[exclude] = saved
	}
	return best
}

// minKeyScanGeneric is the portable argmin key scan: the minimum key and
// the lowest index holding it (idx is meaningless when every slot is
// emptyMinKey — callers check mk first).
//
// Pass 1 finds the minimum as a four-wide compare-and-cmov integer
// reduction — the keys are bit-mapped so unsigned order is weight order,
// and integer mins compile branchless where the float min builtin pays NaN
// and signed-zero fixups per element. Pass 2 finds the first slot holding
// it — the exact lowest-id tie-break of an ascending NonEmptyParts scan.
// For at most 64 slots pass 2 is a branchless equality bitmask plus a
// trailing-zero count; a first-match break loop mispredicts its exit every
// call, and that one mispredict costs more than the whole mask loop.
func minKeyScanGeneric(keys []uint64) (mk uint64, idx int) {
	m0, m1, m2, m3 := emptyMinKey, emptyMinKey, emptyMinKey, emptyMinKey
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		m0 = min(m0, keys[i])
		m1 = min(m1, keys[i+1])
		m2 = min(m2, keys[i+2])
		m3 = min(m3, keys[i+3])
	}
	for ; i < len(keys); i++ {
		m0 = min(m0, keys[i])
	}
	mk = min(min(m0, m1), min(m2, m3))
	if mk == emptyMinKey {
		return mk, 0
	}
	if len(keys) <= 64 {
		var eq uint64
		for a, k := range keys {
			var bit uint64
			if k == mk {
				bit = 1
			}
			eq |= bit << uint(a)
		}
		return mk, bits.TrailingZeros64(eq)
	}
	for a, k := range keys {
		if k == mk {
			return mk, a
		}
	}
	return mk, 0
}

// emptyMinKey is the argmin key of an empty part slot: above minKeyOf of
// every float64, so empty slots can never win the reduction.
const emptyMinKey = ^uint64(0)

// minKeyOf maps a float64 onto a uint64 whose unsigned order is the float
// total order (the usual sign-flip trick). Equal weights map to equal keys,
// so pass 2's first-equal scan keeps the lowest-id tie-break; the one
// refinement over the old < scan is that a -0.0 weight orders before +0.0
// instead of tying, which no realizable internal weight hits.
func minKeyOf(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// minTouch refreshes part a's argmin key after its internal weight or
// emptiness changed: one unconditional store.
func (p *P) minTouch(a int) {
	if !p.minTrack || p.minDirty {
		return
	}
	if p.minNarrow {
		p.minKeyC[a] = p.compositeKeyOf(a)
		return
	}
	if p.size[a] == 0 {
		p.minKey[a] = emptyMinKey
	} else {
		p.minKey[a] = minKeyOf(p.internal[a])
	}
}

// refillMinKeys re-derives every argmin key from the live statistics. It
// runs once when MinInternalPart first arms the cache and after a bulk
// CopyFrom, never in the per-move path.
func (p *P) refillMinKeys() {
	p.minTrack = true
	p.minDirty = false
	if p.minKey == nil && p.minKeyC == nil {
		g := p.g
		// The composite gate is graph-level and the graph is immutable, so
		// the choice is made once: integral edge weights summing below
		// 2^31 keep every internal weight exactly representable in the
		// high half of the composite.
		p.minNarrow = g.UnitEdgeWeights() && !g.HasLoops() &&
			g.TotalEdgeWeight() < float64(1<<31) && len(p.size) <= math.MaxUint32
		if p.minNarrow {
			p.minKeyC = make([]uint64, len(p.size))
		} else {
			p.minKey = make([]uint64, len(p.size))
		}
	}
	if p.minNarrow {
		for a := range p.minKeyC {
			p.minKeyC[a] = p.compositeKeyOf(a)
		}
		return
	}
	for a := range p.minKey {
		if p.size[a] == 0 {
			p.minKey[a] = emptyMinKey
		} else {
			p.minKey[a] = minKeyOf(p.internal[a])
		}
	}
}

// compositeKeyOf packs part a's argmin rank for the narrow path: the
// integral internal weight in the high 32 bits (the all-ones sentinel for
// an empty slot) and the part id in the low 32, so uint64 order is the
// lexicographic (weight, lowest id) order the argmin wants.
func (p *P) compositeKeyOf(a int) uint64 {
	if p.size[a] == 0 {
		return emptyCompositeBase | uint64(a)
	}
	return uint64(uint32(p.internal[a]))<<32 | uint64(a)
}

// emptyCompositeBase is the high half of an empty slot's composite key:
// larger than any real weight under the narrow gate (weights < 2^31).
const emptyCompositeBase = uint64(^uint32(0)) << 32

// minCompositeScan is the narrow-path argmin: a branchless four-chain min
// reduction over the composite (weight<<32 | id) keys. The composite order
// makes the index recovery free — the low half of the minimum is the part
// id — so this portable loop beats the vector scan that the wide path
// needs, on every architecture. The excluded slot is masked by an 8-byte
// aligned store the immediately following loads forward from cleanly (the
// wide kernel's store-to-load-stall concern applies to its 32-byte vector
// loads, not to scalar reloads).
func (p *P) minCompositeScan(exclude int) int {
	keys := p.minKeyC
	masked := exclude >= 0 && exclude < len(keys)
	var saved uint64
	if masked {
		saved = keys[exclude]
		keys[exclude] = emptyCompositeBase | uint64(exclude)
	}
	m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		m0 = min(m0, keys[i])
		m1 = min(m1, keys[i+1])
		m2 = min(m2, keys[i+2])
		m3 = min(m3, keys[i+3])
	}
	for ; i < len(keys); i++ {
		m0 = min(m0, keys[i])
	}
	mk := min(min(m0, m1), min(m2, m3))
	if masked {
		keys[exclude] = saved
	}
	if mk >= emptyCompositeBase {
		return -1
	}
	return int(uint32(mk))
}

// VerticesOf returns the vertices currently in part a, in ascending order.
// A tracked partition gathers the part's member list and sorts it, in
// O(s log s) for a part of s vertices; an untracked one scans all n.
func (p *P) VerticesOf(a int) []int32 {
	out := make([]int32, 0, p.size[a])
	if p.track {
		for v := p.memHead[a]; v >= 0; v = p.memNext[v] {
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	for v, pa := range p.part {
		if int(pa) == a {
			out = append(out, int32(v))
		}
	}
	return out
}

// ConnectionToPart returns the total weight of edges from v to vertices of
// part a (excluding v itself).
func (p *P) ConnectionToPart(v, a int) float64 {
	total := 0.0
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		if int(p.part[u]) == a {
			total += wts[i]
		}
	}
	return total
}

// ConnectedParts returns, for part a, the map of neighboring part id to the
// total weight of edges between a and that part. Each weight is summed over
// a's vertices in ascending order, tracked or not.
func (p *P) ConnectedParts(a int) map[int]float64 {
	out := make(map[int]float64)
	if p.track {
		for _, v := range p.VerticesOf(a) {
			p.addConnections(out, int(v), a)
		}
		return out
	}
	for v, pa := range p.part {
		if int(pa) == a {
			p.addConnections(out, v, a)
		}
	}
	return out
}

// addConnections adds v's edge weight into every assigned part other than
// a to out.
func (p *P) addConnections(out map[int]float64, v, a int) {
	nbrs := p.g.Neighbors(v)
	wts := p.g.Weights(v)
	for i, u := range nbrs {
		if b := int(p.part[u]); b != a && b != Unassigned {
			out[b] += wts[i]
		}
	}
}

// Assignment returns a copy of the per-vertex part ids.
func (p *P) Assignment() []int32 {
	return append([]int32(nil), p.part...)
}

// PartView returns the live per-vertex part-id slice, NOT a copy. Callers
// must treat it as read-only and must not hold it across mutations; it
// exists so per-move hot loops (score.moveConns) can index assignments
// directly instead of paying a method call per neighbor.
func (p *P) PartView() []int32 { return p.part }

// PartView16 returns the live int16 mirror of the per-vertex part ids, or
// nil when the part capacity exceeds the int16 range. Same read-only,
// don't-hold-across-mutations contract as PartView; the narrower entries
// keep the moveConns random-access loads in L1 on graphs twice as large.
func (p *P) PartView16() []int16 { return p.part16 }

// Clone returns an independent deep copy. Like the argmin cache, member
// tracking is not copied: the clone is untracked.
func (p *P) Clone() *P {
	q := &P{
		g:         p.g,
		part:      append([]int32(nil), p.part...),
		size:      append([]int32(nil), p.size...),
		vw:        append([]float64(nil), p.vw...),
		internal:  append([]float64(nil), p.internal...),
		cut:       append([]float64(nil), p.cut...),
		assigned:  p.assigned,
		nonEmpty:  p.nonEmpty,
		crossing:  p.crossing,
		occ:       append([]uint64(nil), p.occ...),
		mutations: p.mutations,
	}
	if p.part16 != nil {
		// Padded like New's allocation for the gathered conns kernel.
		q.part16 = append(make([]int16, 0, len(p.part16)+1), p.part16...)
	}
	return q
}

// CopyFrom overwrites p's state with q's. Both must share the same graph and
// capacity; this is the allocation-free restore used by search loops.
func (p *P) CopyFrom(q *P) {
	if p.g != q.g || len(p.size) != len(q.size) {
		panic("partition: CopyFrom with incompatible partition")
	}
	copy(p.part, q.part)
	if p.part16 != nil {
		if q.part16 != nil {
			copy(p.part16, q.part16)
		} else {
			for i, a := range q.part {
				p.part16[i] = int16(a)
			}
		}
	}
	copy(p.size, q.size)
	copy(p.vw, q.vw)
	copy(p.internal, q.internal)
	copy(p.cut, q.cut)
	copy(p.occ, q.occ)
	p.assigned = q.assigned
	p.nonEmpty = q.nonEmpty
	p.crossing = q.crossing
	p.minDirty = true // bulk overwrite: revalidate the argmin on next query
	p.mutations++
	if p.track {
		p.rebuildMembers()
	}
}

// Compact renumbers non-empty parts to 0..NumParts-1 and returns the final
// assignment. The partition itself is left untouched.
func (p *P) Compact() []int32 {
	remap := make(map[int32]int32, p.nonEmpty)
	next := int32(0)
	out := make([]int32, len(p.part))
	for v, a := range p.part {
		if a == Unassigned {
			out[v] = Unassigned
			continue
		}
		id, ok := remap[a]
		if !ok {
			id = next
			remap[a] = id
			next++
		}
		out[v] = id
	}
	return out
}

// Validate recomputes every statistic from scratch and returns an error on
// the first mismatch. Used by tests and enabled invariant checks.
func (p *P) Validate() error {
	n := p.g.NumVertices()
	cap_ := len(p.size)
	size := make([]int32, cap_)
	vw := make([]float64, cap_)
	internal := make([]float64, cap_)
	cut := make([]float64, cap_)
	crossing := 0.0
	assigned := 0
	for v := 0; v < n; v++ {
		a := p.part[v]
		if a == Unassigned {
			continue
		}
		if int(a) >= cap_ {
			return fmt.Errorf("partition: vertex %d in out-of-range part %d", v, a)
		}
		assigned++
		size[a]++
		vw[a] += p.g.VertexWeight(v)
		internal[a] += p.g.VertexLoop(v)
	}
	p.g.ForEachEdge(func(u, v int, w float64) {
		a, b := p.part[u], p.part[v]
		if a == Unassigned || b == Unassigned {
			return
		}
		if a == b {
			internal[a] += w
		} else {
			cut[a] += w
			cut[b] += w
			crossing += w
		}
	})
	nonEmpty := 0
	for a := 0; a < cap_; a++ {
		if size[a] > 0 {
			nonEmpty++
		}
		if size[a] != p.size[a] {
			return fmt.Errorf("partition: part %d size %d, tracked %d", a, size[a], p.size[a])
		}
		if !approxEq(vw[a], p.vw[a]) {
			return fmt.Errorf("partition: part %d vertex weight %g, tracked %g", a, vw[a], p.vw[a])
		}
		if !approxEq(internal[a], p.internal[a]) {
			return fmt.Errorf("partition: part %d internal %g, tracked %g", a, internal[a], p.internal[a])
		}
		if !approxEq(cut[a], p.cut[a]) {
			return fmt.Errorf("partition: part %d cut %g, tracked %g", a, cut[a], p.cut[a])
		}
	}
	if assigned != p.assigned {
		return fmt.Errorf("partition: assigned %d, tracked %d", assigned, p.assigned)
	}
	if nonEmpty != p.nonEmpty {
		return fmt.Errorf("partition: nonEmpty %d, tracked %d", nonEmpty, p.nonEmpty)
	}
	if !approxEq(crossing, p.crossing) {
		return fmt.Errorf("partition: crossing %g, tracked %g", crossing, p.crossing)
	}
	for a := 0; a < cap_; a++ {
		if set := p.occ[a>>6]>>uint(a&63)&1 == 1; set != (size[a] > 0) {
			return fmt.Errorf("partition: part %d occupancy bit %v, size %d", a, set, size[a])
		}
	}
	if tail := cap_ & 63; tail != 0 && p.occ[len(p.occ)-1]>>uint(tail) != 0 {
		return fmt.Errorf("partition: occupancy bits set past capacity %d", cap_)
	}
	if p.track {
		return p.validateMembers(size)
	}
	return nil
}

// validateMembers checks that part a's member list holds exactly the size[a]
// vertices assigned to a, with consistent back links.
func (p *P) validateMembers(size []int32) error {
	for a, h := range p.memHead {
		prev, count := int32(-1), int32(0)
		for v := h; v >= 0; v = p.memNext[v] {
			if count == size[a] {
				return fmt.Errorf("partition: part %d member list longer than its size %d", a, size[a])
			}
			if p.part[v] != int32(a) {
				return fmt.Errorf("partition: vertex %d of part %d listed in part %d", v, p.part[v], a)
			}
			if p.memPrev[v] != prev {
				return fmt.Errorf("partition: vertex %d back link %d, want %d", v, p.memPrev[v], prev)
			}
			prev = v
			count++
		}
		if count != size[a] {
			return fmt.Errorf("partition: part %d lists %d members, size %d", a, count, size[a])
		}
	}
	return nil
}

func approxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-6*scale
}
