package graph

import (
	"math"

	"repro/internal/rng"
)

// Path returns the path graph on n vertices with unit edge weights.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n >= 3 vertices with unit edge weights.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 1)
	}
	return b.MustBuild()
}

// Complete returns the complete graph on n vertices with unit edge weights.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j, 1)
		}
	}
	return b.MustBuild()
}

// Star returns a star with n-1 leaves attached to vertex 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i, 1)
	}
	return b.MustBuild()
}

// Grid2D returns the rows x cols 4-neighbor grid graph with unit weights.
// Vertex (r, c) has index r*cols + c.
func Grid2D(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1, 1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols, 1)
			}
		}
	}
	return b.MustBuild()
}

// Torus2D returns the rows x cols grid with wrap-around edges.
func Torus2D(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			b.AddEdge(v, r*cols+(c+1)%cols, 1)
			b.AddEdge(v, ((r+1)%rows)*cols+c, 1)
		}
	}
	return b.MustBuild()
}

// Dumbbell returns two cliques of sizes a and b joined by `bridge` unit
// edges between distinct vertex pairs. It is the canonical test case for
// bisection methods: the optimal cut severs the bridge.
func Dumbbell(a, b, bridge int) *Graph {
	bd := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := i + 1; j < a; j++ {
			bd.AddEdge(i, j, 1)
		}
	}
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			bd.AddEdge(a+i, a+j, 1)
		}
	}
	if bridge > a || bridge > b {
		panic("graph: bridge count exceeds clique size")
	}
	for i := 0; i < bridge; i++ {
		bd.AddEdge(i, a+i, 1)
	}
	return bd.MustBuild()
}

// GNP returns an Erdos-Renyi G(n, p) graph with unit edge weights, made
// connected by linking each isolated component to vertex 0 if necessary.
func GNP(n int, p float64, seed int64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(i, j, 1)
			}
		}
	}
	g := b.MustBuild()
	comp, count := Components(g)
	if count == 1 {
		return g
	}
	b2 := NewBuilder(n)
	g.ForEachEdge(func(u, v int, w float64) { b2.AddEdge(u, v, w) })
	linked := make([]bool, count)
	linked[comp[0]] = true
	for v := 1; v < n; v++ {
		if !linked[comp[v]] {
			b2.AddEdge(0, v, 1)
			linked[comp[v]] = true
		}
	}
	return b2.MustBuild()
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within the given radius; edge weight is 1. The graph is made
// connected by adding nearest-pair links between components (see
// nearestLinks).
func RandomGeometric(n int, radius float64, seed int64) *Graph {
	r := rng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(i, j, 1)
			}
		}
	}
	g := b.MustBuild()
	comp, count := Components(g)
	if count == 1 {
		return g
	}
	b = NewBuilder(n)
	b.Reserve(g.NumEdges() + count - 1)
	g.ForEachEdge(func(u, v int, w float64) { b.AddEdge(u, v, w) })
	for _, l := range nearestLinks(xs, ys, comp, count) {
		b.AddEdge(l[0], l[1], 1)
	}
	return b.MustBuild()
}

// nearestLinks returns the count-1 links that join the components of the
// point set: repeatedly linking the closest pair of points in different
// components, ties broken by the smaller (i, j) with i < j. Under that
// strict order on (squared distance, i, j) the links form the unique
// minimum spanning tree over the components, so Prim's algorithm finds
// them in one O(n^2) pass: grow a tree one component at a time, each time
// adding the component of the outside point whose best link into the tree
// is smallest.
func nearestLinks(xs, ys []float64, comp []int32, count int) [][2]int {
	n := len(xs)
	type link struct {
		d    float64
		i, j int // i < j
	}
	less := func(a, b link) bool {
		if a.d != b.d {
			return a.d < b.d
		}
		if a.i != b.i {
			return a.i < b.i
		}
		return a.j < b.j
	}
	// Members of each component, in ascending vertex id.
	start := make([]int, count+1)
	for _, c := range comp {
		start[c+1]++
	}
	for c := 0; c < count; c++ {
		start[c+1] += start[c]
	}
	members := make([]int, n)
	fill := append([]int(nil), start[:count]...)
	for v, c := range comp {
		members[fill[c]] = v
		fill[c]++
	}

	inTree := make([]bool, count)
	best := make([]link, n) // best link from each outside point into the tree
	for v := range best {
		best[v].d = math.Inf(1)
	}
	links := make([][2]int, 0, count-1)
	c := comp[0]
	for {
		inTree[c] = true
		if len(links) == count-1 {
			return links
		}
		for _, a := range members[start[c]:start[c+1]] {
			for b := 0; b < n; b++ {
				if inTree[comp[b]] {
					continue
				}
				i, j := a, b
				if i > j {
					i, j = j, i
				}
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				if l := (link{dx*dx + dy*dy, i, j}); less(l, best[b]) {
					best[b] = l
				}
			}
		}
		next := -1
		for b := 0; b < n; b++ {
			if !inTree[comp[b]] && (next < 0 || less(best[b], best[next])) {
				next = b
			}
		}
		links = append(links, [2]int{best[next].i, best[next].j})
		c = comp[next]
	}
}

// WeightedGrid2D returns a rows x cols grid whose edge weights are produced
// by fn(u, v); fn must return a positive weight. Useful for image-style
// similarity graphs.
func WeightedGrid2D(rows, cols int, fn func(u, v int) float64) *Graph {
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1, fn(v, v+1))
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols, fn(v, v+cols))
			}
		}
	}
	return b.MustBuild()
}
