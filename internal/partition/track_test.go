package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// weightedLoopGraph is a random graph with float edge weights, non-unit
// vertex weights and self-loops on about a third of its vertices.
func weightedLoopGraph(r *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 0.5+r.Float64())
		if r.Intn(3) == 0 {
			b.AddSelfLoop(v, 0.1+r.Float64())
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < 0.15 {
				b.AddEdge(u, v, 0.1+3*r.Float64())
			}
		}
	}
	return b.MustBuild()
}

// Property: a partition with member tracking armed answers every
// enumeration and neighborhood query exactly like an untracked twin fed the
// same mutations, and both agree with a reference derived from PartSize.
func TestTrackedMatchesUntracked(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(40)
		capacity := 60 + r.Intn(90) // spans one to three occupancy words
		g := weightedLoopGraph(r, n)
		tracked, plain := New(g, capacity), New(g, capacity)
		armEarly := r.Intn(2) == 0
		if armEarly {
			tracked.TrackMembers()
		}
		// Assign a random prefix now; the rest arrives through Assign ops.
		order := r.Perm(n)
		cut := r.Intn(n)
		for _, v := range order[:cut] {
			a := r.Intn(capacity)
			tracked.Assign(v, a)
			plain.Assign(v, a)
		}
		if !armEarly {
			tracked.TrackMembers()
		}
		pending := order[cut:]
		for step := 0; step < 120; step++ {
			before := tracked.Mutations()
			switch op := r.Intn(7); {
			case op == 0 && len(pending) > 0:
				v, a := pending[0], r.Intn(capacity)
				pending = pending[1:]
				tracked.Assign(v, a)
				plain.Assign(v, a)
				if tracked.PartChangedAt(a) != tracked.Mutations() {
					t.Logf("seed %d: Assign did not stamp part %d", seed, a)
					return false
				}
			case op <= 2:
				v, to := r.Intn(n), r.Intn(capacity)
				if plain.Part(v) == Unassigned {
					continue
				}
				from := plain.Part(v)
				tracked.Move(v, to)
				plain.Move(v, to)
				if from != to && (tracked.PartChangedAt(from) != tracked.Mutations() ||
					tracked.PartChangedAt(to) != tracked.Mutations()) {
					t.Logf("seed %d: Move did not stamp parts %d,%d", seed, from, to)
					return false
				}
			case op == 3:
				v, to := r.Intn(n), r.Intn(capacity)
				from := plain.Part(v)
				if from == Unassigned {
					continue
				}
				connFrom, connTo := plain.ConnectionToPart(v, from), plain.ConnectionToPart(v, to)
				other := 0.0
				for i, u := range g.Neighbors(v) {
					if b := plain.Part(int(u)); b != Unassigned && b != from && b != to {
						other += g.Weights(v)[i]
					}
				}
				tracked.MoveConns(v, to, connFrom, connTo, other)
				plain.MoveConns(v, to, connFrom, connTo, other)
			case op == 4:
				a, b := plain.NthNonEmpty(r.Intn(plain.NumParts()+1)), r.Intn(capacity)
				if a < 0 {
					continue
				}
				tracked.MergeParts(a, b)
				plain.MergeParts(a, b)
			case op == 5:
				// CopyFrom an unrelated untracked partition, or from a
				// clone of the twin.
				src := New(g, capacity)
				if r.Intn(2) == 0 {
					for v := 0; v < n; v++ {
						if plain.Part(v) != Unassigned {
							src.Assign(v, r.Intn(capacity))
						}
					}
				} else {
					src = plain.Clone()
				}
				tracked.CopyFrom(src)
				plain.CopyFrom(src)
				if tracked.Mutations() <= before {
					t.Logf("seed %d: CopyFrom did not bump the mutation counter", seed)
					return false
				}
			default:
				// A clone is untracked; re-arm it and carry on with it.
				tracked = tracked.Clone()
				tracked.TrackMembers()
				plain = plain.Clone()
			}
			if err := samePartition(tracked, plain); err != "" {
				t.Logf("seed %d step %d: %s", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// samePartition compares a tracked partition with its untracked twin and
// with PartSize-derived references; it returns "" when they agree.
func samePartition(tracked, plain *P) string {
	for _, p := range []*P{tracked, plain} {
		if err := p.Validate(); err != nil {
			return err.Error()
		}
	}
	var ref []int
	empty := -1
	for a := 0; a < plain.Capacity(); a++ {
		if plain.PartSize(a) > 0 {
			ref = append(ref, a)
		} else if empty < 0 {
			empty = a
		}
	}
	for _, p := range []*P{tracked, plain} {
		got := p.NonEmptyParts()
		if len(got) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(got, ref)) {
			return "NonEmptyParts differs from the size scan"
		}
		for i := -1; i <= len(ref); i++ {
			want := -1
			if i >= 0 && i < len(ref) {
				want = ref[i]
			}
			if p.NthNonEmpty(i) != want {
				return "NthNonEmpty differs from NonEmptyParts"
			}
		}
		var walk []int
		for i, w := range p.Occupancy() {
			for b := 0; b < 64; b++ {
				if w>>uint(b)&1 == 1 {
					walk = append(walk, i*64+b)
				}
			}
		}
		if len(walk) != len(got) || (len(got) > 0 && !reflect.DeepEqual(walk, got)) {
			return "Occupancy bits differ from NonEmptyParts"
		}
		if p.EmptySlot() != empty {
			return "EmptySlot differs from the size scan"
		}
	}
	if !reflect.DeepEqual(tracked.Assignment(), plain.Assignment()) {
		return "assignments differ"
	}
	for a := 0; a < plain.Capacity(); a++ {
		if tracked.PartCut(a) != plain.PartCut(a) ||
			tracked.PartInternalOrdered(a) != plain.PartInternalOrdered(a) ||
			tracked.PartVertexWeight(a) != plain.PartVertexWeight(a) {
			return "part statistics differ"
		}
		tv, pv := tracked.VerticesOf(a), plain.VerticesOf(a)
		if len(tv) != len(pv) || (len(pv) > 0 && !reflect.DeepEqual(tv, pv)) {
			return "VerticesOf differs"
		}
		tc, pc := tracked.ConnectedParts(a), plain.ConnectedParts(a)
		if len(tc) != len(pc) {
			return "ConnectedParts key sets differ"
		}
		for b, w := range pc {
			if tw, ok := tc[b]; !ok || tw != w {
				return "ConnectedParts weights differ"
			}
		}
		if plain.PartChangedAt(a) != plain.Mutations() {
			return "untracked PartChangedAt is not the current count"
		}
	}
	return ""
}

// EmptySlot reports -1 once every slot is occupied, including capacities
// that end inside an occupancy word and ones that fill it exactly.
func TestEmptySlotFull(t *testing.T) {
	for _, capacity := range []int{5, 63, 64, 65, 128} {
		g := graph.Path(capacity)
		p := New(g, capacity)
		for v := 0; v < capacity; v++ {
			p.Assign(v, v)
		}
		if got := p.EmptySlot(); got != -1 {
			t.Fatalf("capacity %d full: EmptySlot = %d, want -1", capacity, got)
		}
		last := capacity - 1
		p.Move(last, 0)
		if got := p.EmptySlot(); got != last {
			t.Fatalf("capacity %d: EmptySlot = %d, want %d", capacity, got, last)
		}
	}
}

// Validate catches a stale occupancy bit and broken member lists.
func TestValidateDetectsTrackingCorruption(t *testing.T) {
	g := graph.Path(6)
	fresh := func() *P {
		p := mustFrom(t, g, []int32{0, 0, 0, 1, 1, 1}, 70)
		p.TrackMembers()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	corruptions := map[string]func(p *P){
		"occupancy bit of an empty slot": func(p *P) { p.occ[0] |= 1 << 5 },
		"occupancy bit past capacity":    func(p *P) { p.occ[1] |= 1 << 10 },
		"occupancy bit of a full slot":   func(p *P) { p.occ[0] &^= 1 },
		"member dropped from its list":   func(p *P) { p.unlink(1, 0) },
		"member listed in a second part": func(p *P) { p.link(1, 1) },
		"back link":                      func(p *P) { p.memPrev[p.memNext[p.memHead[0]]] = -1 },
	}
	for name, corrupt := range corruptions {
		p := fresh()
		corrupt(p)
		if err := p.Validate(); err == nil {
			t.Errorf("Validate missed corruption: %s", name)
		}
	}
}
