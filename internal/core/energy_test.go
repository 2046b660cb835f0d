package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Property: moveDelta (the O(deg) incremental evaluation used by nucleon
// relaxation) agrees with the difference of full smoothed evaluations, for
// every objective, on random graphs, partitions and moves.
func TestMoveDeltaMatchesFullEvaluation(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(30)
		g := graph.GNP(n, 0.25, seed)
		k := 2 + r.Intn(4)
		assign := make([]int32, n)
		for v := range assign {
			assign[v] = int32(r.Intn(k))
		}
		p, err := partition.FromAssignment(g, assign, n)
		if err != nil {
			return false
		}
		for _, obj := range objective.All {
			e := newEnergyModel(g, obj, k)
			for trial := 0; trial < 25; trial++ {
				v := r.Intn(n)
				a := p.Part(v)
				if p.PartSize(a) <= 1 {
					continue
				}
				b := -1
				for _, u := range g.Neighbors(v) {
					if pb := p.Part(int(u)); pb != a {
						b = pb
						break
					}
				}
				if b < 0 {
					continue
				}
				before := e.energy(p)
				delta := e.moveDelta(p, v, a, b)
				p.Move(v, b)
				after := e.energy(p)
				p.Move(v, a)
				want := after - before
				// The full-evaluation difference cancels two large sums
				// (smoothed Mcut terms can reach cut/eps), so the
				// comparison tolerance must scale with their magnitude —
				// moveDelta itself only touches the two affected terms
				// and is the more accurate side.
				tol := 1e-9*(1+math.Abs(want)) + 1e-12*(math.Abs(before)+math.Abs(after))
				if math.Abs(delta-want) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidChoiceRuns(t *testing.T) {
	g := graph.Grid2D(8, 8)
	res, err := Partition(g, 4, Options{Seed: 2, MaxSteps: 1500, Choice: ChoiceSigmoid})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.NumParts() != 4 {
		t.Fatalf("NumParts = %d", res.Best.NumParts())
	}
	// Distinct rngs consumption means the linear run differs; both valid.
	lin, err := Partition(g, 4, Options{Seed: 2, MaxSteps: 1500, Choice: ChoiceLinear})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Best.NumParts() != 4 {
		t.Fatalf("linear NumParts = %d", lin.Best.NumParts())
	}
}

// Property: the cached, memoized energy equals the full smoothed evaluation
// times the binding penalty bit for bit, after any mix of fusion-fission
// events, on tracked and untracked molecules alike — including a CopyFrom
// restore, a wholesale replacement of the molecule (a foreign incumbent)
// and interleaved evaluations of another partition.
func TestEnergyMatchesFullEvaluation(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 30 + r.Intn(50)
		b := graph.NewBuilder(n)
		src := graph.GNP(n, 0.12, seed)
		src.ForEachEdge(func(u, v int, w float64) { b.AddEdge(u, v, 0.25+2*r.Float64()) })
		for v := 0; v < n; v += 4 {
			b.AddSelfLoop(v, 0.5)
		}
		g := b.MustBuild()
		for _, obj := range objective.All {
			k := 2 + r.Intn(5)
			s := newSearch(g, k, Options{Objective: obj, Seed: seed}.withDefaults())
			for v := 0; v < n; v++ {
				s.cur.Assign(v, r.Intn(2*k))
			}
			snapshot := s.cur.Clone()
			for step := 0; step < 80; step++ {
				atom := chooseAtom(s.cur, s.r)
				switch r.Intn(8) {
				case 0:
					v := r.Intn(n)
					if to := s.strongestOtherAtom(v); to >= 0 && s.cur.PartSize(s.cur.Part(v)) > 1 {
						s.cur.Move(v, to)
					}
				case 1:
					fissionSplit(s.cur, atom, r.Intn(2) == 0, s.r)
				case 2:
					if partner := choosePartner(s.cur, atom, r.Float64(), 0, s.r); partner >= 0 {
						merged := fuse(s.cur, atom, partner)
						for _, v := range selectEjections(s.cur, merged, r.Intn(4)) {
							s.nfusion(v, merged)
						}
					}
				case 3:
					s.relaxAtoms(atom)
				case 4:
					s.cur.CopyFrom(snapshot)
				case 5:
					// A foreign incumbent replaces the molecule outright;
					// the replacement is untracked until re-armed.
					p, err := partition.FromAssignment(g, s.cur.Assignment(), n)
					if err != nil {
						t.Fatal(err)
					}
					s.cur = p
				case 6:
					s.cur.TrackMembers()
				default:
					snapshot = s.cur.Clone()
					s.energy.energy(snapshot) // the cache moves to another partition
				}
				if r.Intn(3) == 0 {
					continue // let several events accumulate between evaluations
				}
				for _, p := range []*partition.P{s.cur, s.cur} { // second call hits the memo
					got := s.energy.energy(p)
					want := obj.EvaluateSmoothed(p, s.energy.eps) * s.energy.penalty(p.NumParts())
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Logf("seed %d %v step %d: energy %v, full evaluation %v", seed, obj, step, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
