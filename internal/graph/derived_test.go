package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// Equivalence suite for the graphs assembled straight into CSR: Contract,
// Relabel and Induced must equal, field for field and bit for bit, the
// graph the frozen referenceBuild builds from the same edges. The builder*
// functions are those reference paths; they feed a Builder but finish with
// referenceBuild, never with the assembly core under test.

// builderContract is the Builder reference for Contract: the body coarsening
// used before Contract existed.
func builderContract(g *Graph, toCoarse []int32, nc int) *Graph {
	b := NewBuilder(nc)
	vw := make([]float64, nc)
	for v := 0; v < g.NumVertices(); v++ {
		vw[toCoarse[v]] += g.VertexWeight(v)
	}
	for c, w := range vw {
		b.SetVertexWeight(c, w)
	}
	g.ForEachEdge(func(u, v int, w float64) {
		cu, cv := toCoarse[u], toCoarse[v]
		if cu != cv {
			b.AddEdge(int(cu), int(cv), w)
		} else {
			b.AddSelfLoop(int(cu), w)
		}
	})
	if g.HasLoops() {
		for v := 0; v < g.NumVertices(); v++ {
			if l := g.VertexLoop(v); l > 0 {
				b.AddSelfLoop(int(toCoarse[v]), l)
			}
		}
	}
	return mustReferenceBuild(b)
}

// builderRelabel is the Builder reference for Relabel.
func builderRelabel(g *Graph, perm []int32) *Graph {
	n := g.NumVertices()
	b := NewBuilder(n)
	g.ForEachEdge(func(u, v int, w float64) {
		b.AddEdge(int(perm[u]), int(perm[v]), w)
	})
	for v := 0; v < n; v++ {
		b.SetVertexWeight(int(perm[v]), g.VertexWeight(v))
		if lw := g.VertexLoop(v); lw != 0 {
			b.AddSelfLoop(int(perm[v]), lw)
		}
	}
	return mustReferenceBuild(b)
}

// builderInduced is the Builder reference for Induced.
func builderInduced(g *Graph, vertices []int32) *Graph {
	local := make(map[int32]int, len(vertices))
	for i, v := range vertices {
		local[v] = i
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		b.SetVertexWeight(i, g.VertexWeight(int(v)))
	}
	g.ForEachEdge(func(u, v int, w float64) {
		lu, okU := local[int32(u)]
		lv, okV := local[int32(v)]
		if okU && okV {
			b.AddEdge(lu, lv, w)
		}
	})
	return mustReferenceBuild(b)
}

// sameAsBuilder fails unless got equals the Builder reference want in every
// array, derived ones included, and in its binary encoding.
func sameAsBuilder(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	graphsEqual(t, name, got, want)
	if !bytes.Equal(EncodeBinary(got), EncodeBinary(want)) {
		t.Fatalf("%s: binary encodings differ", name)
	}
}

// randomWeightedGraph draws a G(n, p) graph with fractional edge and vertex
// weights, some parallel edges (merged by the Builder) and, when loops is
// set, self-loops on about a fifth of the vertices.
func randomWeightedGraph(r *rand.Rand, n int, p float64, loops bool) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if r.Intn(3) == 0 {
			b.SetVertexWeight(v, 0.1+3*r.Float64())
		}
		if loops && r.Intn(5) == 0 {
			b.AddSelfLoop(v, 0.01+2*r.Float64())
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(i, j, 0.01+5*r.Float64())
				if r.Intn(8) == 0 {
					b.AddEdge(j, i, 0.3*r.Float64()+0.01)
				}
			}
		}
	}
	return b.MustBuild()
}

// randomOnto returns a uniformly random map of n vertices onto nc coarse
// vertices, every coarse vertex hit.
func randomOnto(r *rand.Rand, n, nc int) []int32 {
	m := make([]int32, n)
	for v := range m {
		m[v] = int32(r.Intn(nc))
	}
	for c, v := range r.Perm(n)[:nc] {
		m[v] = int32(c)
	}
	return m
}

func TestContractMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(120)
		g := randomWeightedGraph(r, n, 0.02+0.3*r.Float64(), trial%3 != 0)
		ncs := []int{1, n, 1 + r.Intn(n), 1 + r.Intn(n)}
		for _, nc := range ncs {
			toCoarse := randomOnto(r, n, nc)
			got, err := Contract(g, toCoarse, nc)
			if err != nil {
				t.Fatalf("trial %d nc %d: %v", trial, nc, err)
			}
			want := builderContract(g, toCoarse, nc)
			sameAsBuilder(t, "contract", got, want)
			// Contract the quotient again, so parallel fine edges with
			// folded weights and carried loops feed the next level.
			if nc > 1 {
				nc2 := 1 + r.Intn(nc)
				m2 := randomOnto(r, nc, nc2)
				got2, err := Contract(got, m2, nc2)
				if err != nil {
					t.Fatalf("trial %d nc %d->%d: %v", trial, nc, nc2, err)
				}
				sameAsBuilder(t, "contract twice", got2, builderContract(want, m2, nc2))
			}
		}
	}
}

func TestContractRejectsBadMaps(t *testing.T) {
	g := Path(4)
	for name, tc := range map[string]struct {
		m  []int32
		nc int
	}{
		"short":        {[]int32{0, 0, 1}, 2},
		"out-of-range": {[]int32{0, 0, 1, 2}, 2},
		"negative":     {[]int32{0, -1, 1, 1}, 2},
		"not onto":     {[]int32{0, 0, 2, 2}, 3},
	} {
		if _, err := Contract(g, tc.m, tc.nc); err == nil {
			t.Errorf("%s: Contract accepted %v onto %d", name, tc.m, tc.nc)
		}
	}
}

// bfsOrder numbers the vertices in breadth-first order from vertex 0 and
// then from each unreached vertex, a locality-style permutation.
func bfsOrder(g *Graph) []int32 {
	n := g.NumVertices()
	perm := make([]int32, n)
	for v := range perm {
		perm[v] = -1
	}
	next := int32(0)
	for s := 0; s < n; s++ {
		if perm[s] >= 0 {
			continue
		}
		perm[s] = next
		next++
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if perm[u] < 0 {
					perm[u] = next
					next++
					queue = append(queue, int(u))
				}
			}
		}
	}
	return perm
}

func reversed(n int) []int32 {
	perm := make([]int32, n)
	for v := range perm {
		perm[v] = int32(n - 1 - v)
	}
	return perm
}

func TestRelabelMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	graphs := []*Graph{loopy(), Grid2D(9, 7), RandomGeometric(300, 0.1, 4), NewBuilder(5).MustBuild()}
	for trial := 0; trial < 30; trial++ {
		graphs = append(graphs, randomWeightedGraph(r, 1+r.Intn(150), 0.02+0.2*r.Float64(), trial%2 == 0))
	}
	for i, g := range graphs {
		n := g.NumVertices()
		random := make([]int32, n)
		for v, p := range r.Perm(n) {
			random[v] = int32(p)
		}
		for name, perm := range map[string][]int32{"random": random, "reversed": reversed(n), "bfs": bfsOrder(g)} {
			got, err := Relabel(g, perm)
			if err != nil {
				t.Fatalf("graph %d %s: %v", i, name, err)
			}
			sameAsBuilder(t, name, got, builderRelabel(g, perm))
		}
	}
}

// TestRowSortHub runs the hub of a 20k-leaf star through both row-building
// paths with its neighbors in descending order — the insertion sort's worst
// case — and checks each against the Builder reference.
func TestRowSortHub(t *testing.T) {
	const n = 20001
	g := Star(n)
	perm := reversed(n)
	rg, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	sameAsBuilder(t, "relabel star", rg, builderRelabel(g, perm))
	sub := Induced(g, perm)
	sameAsBuilder(t, "induced star", sub.G, builderInduced(g, perm))
}

func TestSortArcsMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range []int{0, 1, 2, sortArcsCutoff, sortArcsCutoff + 1, 100, 1000} {
		nbrs := make([]int32, d)
		wts := make([]float64, d)
		for i, p := range r.Perm(4 * d)[:d] {
			nbrs[i], wts[i] = int32(p), float64(p)+0.5
		}
		sortArcs(nbrs, wts)
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Fatalf("d=%d: row not sorted", d)
		}
		for i := range nbrs {
			if wts[i] != float64(nbrs[i])+0.5 {
				t.Fatalf("d=%d: weight %g left its neighbor %d", d, wts[i], nbrs[i])
			}
		}
	}
}

func TestInducedMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		g := randomWeightedGraph(r, 2+r.Intn(150), 0.05+0.3*r.Float64(), true)
		n := g.NumVertices()
		s := 1 + r.Intn(n)
		vertices := make([]int32, s)
		for i, v := range r.Perm(n)[:s] {
			vertices[i] = int32(v)
		}
		sameAsBuilder(t, "induced", Induced(g, vertices).G, builderInduced(g, vertices))
	}
}

// TestBuildMatchesReference feeds identical add sequences to two Builders
// and requires Build to reproduce referenceBuild exactly: random insertion
// orders and orientations, float-weighted parallel edges added in every
// order (their sums differ in the low bits by order), loops, vertex
// weights, n = 0 and 1, and a graph without edges.
func TestBuildMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check := func(name string, n int, feed func(b *Builder)) {
		t.Helper()
		live, ref := NewBuilder(n), NewBuilder(n)
		feed(live)
		feed(ref)
		got, err := live.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameAsBuilder(t, name, got, mustReferenceBuild(ref))
	}
	check("n=0", 0, func(*Builder) {})
	check("n=1", 1, func(b *Builder) { b.SetVertexWeight(0, 2.5) })
	check("n=1 loop", 1, func(b *Builder) { b.AddSelfLoop(0, 0.3); b.AddSelfLoop(0, 0.1) })
	check("no edges", 7, func(b *Builder) { b.SetVertexWeight(3, 0.7); b.AddSelfLoop(5, 1.5) })

	// Three parallels whose sum depends on the fold order, in all six orders,
	// next to a second pair that is folded in the opposite direction.
	parallels := []float64{0.1, 0.2, 0.3}
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		check("parallel order", 4, func(b *Builder) {
			for i, k := range order {
				b.AddEdge(2, 1, parallels[k])
				b.AddEdge(0, 3, parallels[2-i])
			}
			b.AddEdge(3, 2, 1e-17)
			b.AddEdge(1, 2, 1e16)
		})
	}

	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(150)
		type edge struct {
			u, v int
			w    float64
		}
		var edges []edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.08 {
					edges = append(edges, edge{i, j, 0.01 + 5*r.Float64()})
					for r.Intn(4) == 0 {
						edges = append(edges, edge{j, i, 0.01 + r.Float64()})
					}
				}
			}
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		vw := make([]float64, n)
		loops := make([]float64, n)
		for v := range vw {
			vw[v] = 1
			if r.Intn(3) == 0 {
				vw[v] = 0.1 + 3*r.Float64()
			}
			if trial%2 == 0 && r.Intn(5) == 0 {
				loops[v] = 0.01 + 2*r.Float64()
			}
		}
		check("random", n, func(b *Builder) {
			b.Reserve(len(edges) / 2)
			for v := range vw {
				b.SetVertexWeight(v, vw[v])
				if loops[v] > 0 {
					b.AddSelfLoop(v, loops[v])
				}
			}
			for _, e := range edges {
				b.AddEdge(e.u, e.v, e.w)
			}
		})
	}
}
