package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	b.AddEdge(3, 0, 5)
	b.SetVertexWeight(2, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d, want 4,4", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 3); !ok || w != 5 {
		t.Fatalf("EdgeWeight(0,3) = %v,%v, want 5,true", w, ok)
	}
	if w, ok := g.EdgeWeight(0, 2); ok {
		t.Fatalf("EdgeWeight(0,2) = %v, want absent", w)
	}
	if g.VertexWeight(2) != 7 {
		t.Fatalf("VertexWeight(2) = %v, want 7", g.VertexWeight(2))
	}
	if g.TotalVertexWeight() != 10 {
		t.Fatalf("TotalVertexWeight = %v, want 10", g.TotalVertexWeight())
	}
	if g.TotalEdgeWeight() != 14 {
		t.Fatalf("TotalEdgeWeight = %v, want 14", g.TotalEdgeWeight())
	}
	if d := g.WeightedDegree(0); d != 7 {
		t.Fatalf("WeightedDegree(0) = %v, want 7", d)
	}
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 2.5)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("parallel edges not merged: m=%d", g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 3.5 {
		t.Fatalf("merged weight = %v, want 3.5", w)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.AddEdge(0, 0, 1) },
		func(b *Builder) { b.AddEdge(0, 5, 1) },
		func(b *Builder) { b.AddEdge(-1, 0, 1) },
		func(b *Builder) { b.AddEdge(0, 1, 0) },
		func(b *Builder) { b.AddEdge(0, 1, -2) },
		func(b *Builder) { b.SetVertexWeight(9, 1) },
		func(b *Builder) { b.SetVertexWeight(0, 0) },
	}
	for i, f := range cases {
		b := NewBuilder(3)
		f(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestBuilderRejectsNonFinite covers weights that are, or that merge into,
// NaN or +Inf: each must fail Build with the "not positive and finite"
// wording the METIS and binary decoders use, never reach a graph.
func TestBuilderRejectsNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for name, feed := range map[string]func(*Builder){
		"NaN edge":          func(b *Builder) { b.AddEdge(0, 1, math.NaN()) },
		"+Inf edge":         func(b *Builder) { b.AddEdge(1, 2, inf) },
		"+Inf vertex":       func(b *Builder) { b.SetVertexWeight(1, inf) },
		"NaN vertex":        func(b *Builder) { b.SetVertexWeight(1, math.NaN()) },
		"+Inf loop":         func(b *Builder) { b.AddSelfLoop(2, inf) },
		"parallels to +Inf": func(b *Builder) { b.AddEdge(0, 1, 1e308); b.AddEdge(1, 0, 1e308) },
	} {
		b := NewBuilder(3)
		feed(b)
		g, err := b.Build()
		if err == nil {
			t.Errorf("%s: built, total edge weight %g", name, g.TotalEdgeWeight())
		} else if !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: error %q", name, err)
		}
	}
}

// TestBuilderRejectsOverflowingTotals covers graphs whose weights are each
// finite but whose totals pass half the float64 range: contracting such a
// graph can sum its weights to +Inf (a 4-cycle of 1e308 edges contracts to
// one edge of 2e308), so Build rejects them, and accepts totals at the bound.
func TestBuilderRejectsOverflowingTotals(t *testing.T) {
	half := math.MaxFloat64 / 2
	for name, feed := range map[string]func(*Builder){
		"loops to +Inf": func(b *Builder) { b.AddSelfLoop(2, 1e308); b.AddSelfLoop(2, 1e308) },
		"path of 1e308": func(b *Builder) { b.AddEdge(0, 1, 1e308); b.AddEdge(1, 2, 1e308) },
		"4-cycle of 1e308": func(b *Builder) {
			b.AddEdge(0, 1, 1e308)
			b.AddEdge(1, 2, 1e308)
			b.AddEdge(2, 3, 1e308)
			b.AddEdge(3, 0, 1e308)
		},
		"edge past half":     func(b *Builder) { b.AddEdge(0, 1, 1e308) },
		"edge and loop":      func(b *Builder) { b.AddEdge(0, 1, half); b.AddSelfLoop(3, half) },
		"vertices past half": func(b *Builder) { b.SetVertexWeight(0, half); b.SetVertexWeight(1, half) },
	} {
		b := NewBuilder(4)
		feed(b)
		if g, err := b.Build(); err == nil {
			t.Errorf("%s: built, totals %g edge, %g loop, %g vertex", name, g.TotalEdgeWeight(), g.TotalLoopWeight(), g.TotalVertexWeight())
		} else if !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: error %q", name, err)
		}
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1, half/2)
	b.AddEdge(2, 3, half/2)
	b.SetVertexWeight(0, half-3)
	if _, err := b.Build(); err != nil {
		t.Errorf("totals at the bound: %v", err)
	}
}

func TestEdgeIDsConsistent(t *testing.T) {
	g := Grid2D(5, 7)
	seen := make(map[int32][2]int)
	for v := 0; v < g.NumVertices(); v++ {
		ids := g.ArcEdgeIDs(v)
		nbrs := g.Neighbors(v)
		for i, id := range ids {
			u := int(nbrs[i])
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			if prev, ok := seen[id]; ok {
				if prev != [2]int{a, b} {
					t.Fatalf("edge id %d maps to both %v and %v", id, prev, [2]int{a, b})
				}
			} else {
				seen[id] = [2]int{a, b}
			}
			eu, ev := g.EdgeEndpoints(int(id))
			if eu != a || ev != b {
				t.Fatalf("EdgeEndpoints(%d) = (%d,%d), want (%d,%d)", id, eu, ev, a, b)
			}
		}
	}
	if len(seen) != g.NumEdges() {
		t.Fatalf("saw %d distinct edge ids, want %d", len(seen), g.NumEdges())
	}
}

func TestForEachEdgeVisitsEachOnce(t *testing.T) {
	g := Torus2D(4, 5)
	count := 0
	total := 0.0
	g.ForEachEdge(func(u, v int, w float64) {
		if u >= v {
			t.Fatalf("ForEachEdge gave u=%d >= v=%d", u, v)
		}
		count++
		total += w
	})
	if count != g.NumEdges() {
		t.Fatalf("visited %d edges, want %d", count, g.NumEdges())
	}
	if math.Abs(total-g.TotalEdgeWeight()) > 1e-12 {
		t.Fatalf("sum %v != total %v", total, g.TotalEdgeWeight())
	}
}

func TestGeneratorsShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path", Path(10), 10, 9},
		{"cycle", Cycle(8), 8, 8},
		{"complete", Complete(6), 6, 15},
		{"star", Star(7), 7, 6},
		{"grid", Grid2D(3, 4), 12, 17},
		{"torus", Torus2D(3, 4), 12, 24},
		{"dumbbell", Dumbbell(5, 4, 2), 9, 10 + 6 + 2},
	}
	for _, c := range cases {
		if c.g.NumVertices() != c.n || c.g.NumEdges() != c.m {
			t.Errorf("%s: got (%d,%d), want (%d,%d)", c.name, c.g.NumVertices(), c.g.NumEdges(), c.n, c.m)
		}
		if !IsConnected(c.g) {
			t.Errorf("%s: not connected", c.name)
		}
	}
}

func TestRandomGeneratorsConnectedAndDeterministic(t *testing.T) {
	g1 := GNP(60, 0.05, 42)
	g2 := GNP(60, 0.05, 42)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("GNP not deterministic: %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	if !IsConnected(g1) {
		t.Fatal("GNP graph not connected")
	}
	rg := RandomGeometric(80, 0.15, 7)
	if !IsConnected(rg) {
		t.Fatal("RandomGeometric graph not connected")
	}
	if rg.NumVertices() != 80 {
		t.Fatalf("RandomGeometric n = %d", rg.NumVertices())
	}
}

func TestBFSLevelsOnPath(t *testing.T) {
	g := Path(6)
	lv := BFSLevels(g, 2)
	want := []int32{2, 1, 0, 1, 2, 3}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestComponents(t *testing.T) {
	// Two disjoint triangles.
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1], 1)
	}
	g := b.MustBuild()
	comp, count := Components(g)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] || comp[3] != comp[4] || comp[3] != comp[5] || comp[0] == comp[3] {
		t.Fatalf("bad component labels %v", comp)
	}
	if IsConnected(g) {
		t.Fatal("IsConnected wrongly true")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Grid2D(4, 4)
	// Take the top-left 2x2 block: vertices 0,1,4,5.
	sub := Induced(g, []int32{0, 1, 4, 5})
	if sub.G.NumVertices() != 4 {
		t.Fatalf("n = %d, want 4", sub.G.NumVertices())
	}
	if sub.G.NumEdges() != 4 {
		t.Fatalf("m = %d, want 4 (a 2x2 grid cycle)", sub.G.NumEdges())
	}
	for local, orig := range sub.Orig {
		if g.VertexWeight(int(orig)) != sub.G.VertexWeight(local) {
			t.Fatalf("vertex weight mismatch at local %d", local)
		}
	}
}

func TestFarthestPointSeeds(t *testing.T) {
	g := Path(30)
	seeds := FarthestPointSeeds(g, 0, 3)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
	if seeds[0] != 0 || seeds[1] != 29 {
		t.Fatalf("seeds = %v, want start 0 then 29", seeds)
	}
	// Third seed should be near the middle.
	if seeds[2] < 10 || seeds[2] > 20 {
		t.Fatalf("third seed %d not near middle", seeds[2])
	}
}

func TestFarthestPointSeedsTruncates(t *testing.T) {
	g := Path(3)
	seeds := FarthestPointSeeds(g, 0, 10)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want all 3 vertices", len(seeds))
	}
}

// Property: for random graphs, the CSR structure is internally consistent —
// every arc appears in both directions with equal weight, and degree sums
// match twice the edge count.
func TestCSRSymmetryProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		b := NewBuilder(n)
		edges := r.Intn(3 * n)
		for i := 0; i < edges; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(u, v, 1+r.Float64()*9)
			}
		}
		g := b.MustBuild()
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(v)
			nbrs := g.Neighbors(v)
			wts := g.Weights(v)
			for i, u := range nbrs {
				w2, ok := g.EdgeWeight(int(u), v)
				if !ok || math.Abs(w2-wts[i]) > 1e-12 {
					return false
				}
			}
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddSelfLoop(1, 3)
	b.AddSelfLoop(1, 0.5)
	b.AddSelfLoop(2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasLoops() {
		t.Fatal("HasLoops = false")
	}
	if got := g.VertexLoop(0); got != 0 {
		t.Fatalf("VertexLoop(0) = %g, want 0", got)
	}
	if got := g.VertexLoop(1); got != 3.5 {
		t.Fatalf("VertexLoop(1) = %g, want 3.5 (accumulated)", got)
	}
	if got := g.TotalLoopWeight(); got != 4.5 {
		t.Fatalf("TotalLoopWeight = %g, want 4.5", got)
	}
	// Loops are not edges: adjacency, edge count and edge weight unchanged.
	if g.NumEdges() != 1 || g.TotalEdgeWeight() != 2 || g.Degree(1) != 1 {
		t.Fatalf("loops leaked into the adjacency: m=%d totW=%g deg(1)=%d",
			g.NumEdges(), g.TotalEdgeWeight(), g.Degree(1))
	}

	// A loop-free graph reports zeros without allocating.
	g2 := NewBuilder(2).MustBuild()
	if g2.HasLoops() || g2.VertexLoop(0) != 0 || g2.TotalLoopWeight() != 0 {
		t.Fatal("loop state on a loop-free graph")
	}
}

func TestSelfLoopErrors(t *testing.T) {
	b := NewBuilder(2)
	b.AddSelfLoop(5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range self-loop not rejected")
	}
	b = NewBuilder(2)
	b.AddSelfLoop(0, -1)
	if _, err := b.Build(); err == nil {
		t.Fatal("non-positive self-loop weight not rejected")
	}
	// AddEdge still rejects u == v: a self-loop must be explicit.
	b = NewBuilder(2)
	b.AddEdge(1, 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("AddEdge self-loop not rejected")
	}
}
