package multilevel

import (
	"testing"
	"testing/quick"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/rng"
)

func TestCoarseningPreservesTotals(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 30 + r.Intn(100)
		g := graph.RandomGeometric(n, 0.2, seed)
		ladder := coarsen.HEM(g, 10, seed)
		prev := g
		for _, lvl := range ladder {
			// Vertex weight is conserved exactly.
			if diff := lvl.G.TotalVertexWeight() - prev.TotalVertexWeight(); diff > 1e-9 || diff < -1e-9 {
				return false
			}
			// Every fine vertex maps to a valid coarse vertex.
			if len(lvl.Map) != prev.NumVertices() {
				return false
			}
			for _, c := range lvl.Map {
				if c < 0 || int(c) >= lvl.G.NumVertices() {
					return false
				}
			}
			// Edge weight never grows (self-loops are dropped).
			if lvl.G.TotalEdgeWeight() > prev.TotalEdgeWeight()+1e-9 {
				return false
			}
			// Matching contracts at most pairs: at least half the size.
			if lvl.G.NumVertices()*2 < prev.NumVertices() {
				return false
			}
			prev = lvl.G
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseningReduces(t *testing.T) {
	g := graph.Grid2D(20, 20)
	ladder := coarsen.HEM(g, 50, 1)
	if len(ladder) == 0 {
		t.Fatal("no coarsening happened")
	}
	coarsest := ladder[len(ladder)-1].G
	if coarsest.NumVertices() > 50 {
		t.Fatalf("coarsest has %d vertices, want <= 50", coarsest.NumVertices())
	}
}

func TestCoarsenCutConsistency(t *testing.T) {
	// A partition of the coarse graph, projected to the fine graph, must
	// have exactly the same crossing weight (self-loops never cross).
	g := graph.RandomGeometric(80, 0.2, 3)
	ladder := coarsen.HEM(g, 20, 3)
	if len(ladder) == 0 {
		t.Skip("graph too small to coarsen")
	}
	lvl := ladder[0]
	r := rng.New(7)
	coarseSide := make([]int32, lvl.G.NumVertices())
	for v := range coarseSide {
		coarseSide[v] = int32(r.Intn(2))
	}
	coarseCut := 0.0
	lvl.G.ForEachEdge(func(u, v int, w float64) {
		if coarseSide[u] != coarseSide[v] {
			coarseCut += w
		}
	})
	fineCut := 0.0
	g.ForEachEdge(func(u, v int, w float64) {
		if coarseSide[lvl.Map[u]] != coarseSide[lvl.Map[v]] {
			fineCut += w
		}
	})
	if diff := coarseCut - fineCut; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("projected cut %g != coarse cut %g", fineCut, coarseCut)
	}
}

func TestBisectDumbbell(t *testing.T) {
	g := graph.Dumbbell(20, 20, 2)
	p, err := Partition(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.CrossingWeight() != 2 {
		t.Fatalf("crossing = %g, want 2", p.CrossingWeight())
	}
}

func TestGrid32Parts(t *testing.T) {
	g := graph.Grid2D(16, 16)
	p, err := Partition(g, 32, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 32 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
	if imb := objective.Imbalance(p); imb > 0.35 {
		t.Fatalf("imbalance %.3f", imb)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOctasectionMode(t *testing.T) {
	g := graph.Grid2D(12, 12)
	p, err := Partition(g, 8, Options{Arity: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 8 {
		t.Fatalf("NumParts = %d", p.NumParts())
	}
}

func TestRefinementHelps(t *testing.T) {
	g := graph.RandomGeometric(200, 0.12, 9)
	refined, err := Partition(g, 8, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Partition(g, 8, Options{Seed: 4, DisableRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.CrossingWeight() > raw.CrossingWeight()+1e-9 {
		t.Fatalf("refinement worsened cut: %g vs %g", refined.CrossingWeight(), raw.CrossingWeight())
	}
}

func TestBeatsOrMatchesLinearBaseline(t *testing.T) {
	// The multilevel method should cut a geometric graph far better than a
	// structure-blind index slice (sanity check of the whole V-cycle).
	g := graph.RandomGeometric(150, 0.15, 11)
	p, err := Partition(g, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Index slicing on a geometric graph with random vertex order crosses
	// roughly 3/4 of all edges.
	randomish := 0.5 * g.TotalEdgeWeight()
	if p.CrossingWeight() > randomish {
		t.Fatalf("multilevel crossing %g worse than random-ish %g", p.CrossingWeight(), randomish)
	}
}

func TestNonPowerOfTwoK(t *testing.T) {
	g := graph.Grid2D(10, 10)
	for _, k := range []int{3, 5, 27} {
		p, err := Partition(g, k, Options{Seed: 6})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.NumParts() != k {
			t.Fatalf("k=%d: NumParts = %d", k, p.NumParts())
		}
	}
}

func TestErrors(t *testing.T) {
	g := graph.Path(4)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Partition(g, 5, Options{}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Partition(g, 2, Options{Arity: 4}); err == nil {
		t.Fatal("arity 4 accepted")
	}
}
