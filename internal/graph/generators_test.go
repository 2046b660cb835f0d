package graph

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
)

// randomGeometricLoop is RandomGeometric with the original connect step,
// connectByLoop: the reference nearestLinks must reproduce.
func randomGeometricLoop(n int, radius float64, seed int64) *Graph {
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
	return connectByLoop(b.MustBuild(), xs, ys)
}

// connectByLoop links g's points until g is connected: while it is not,
// add the closest pair of points in different components (first (i, j) on
// ties) and rebuild.
func connectByLoop(g *Graph, xs, ys []float64) *Graph {
	n := g.NumVertices()
	for {
		comp, count := Components(g)
		if count == 1 {
			return g
		}
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] == comp[j] {
					continue
				}
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				if d := dx*dx + dy*dy; d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		b2 := NewBuilder(n)
		g.ForEachEdge(func(u, v int, w float64) { b2.AddEdge(u, v, w) })
		b2.AddEdge(bi, bj, 1)
		g = b2.MustBuild()
	}
}

// TestRandomGeometricMatchesConnectLoop sweeps sizes, radii from "every
// point isolated" to "connected already" and seeds, and requires the
// spanning-tree connect step to build exactly the graph the loop builds.
func TestRandomGeometricMatchesConnectLoop(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 40, 150}
	if !testing.Short() {
		// The loop reference is O(n^2) per component; at 400 isolated
		// points it dominates an instrumented (-race) run.
		sizes = append(sizes, 400)
	}
	for _, n := range sizes {
		for _, radius := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5} {
			for seed := int64(1); seed <= 3; seed++ {
				got := RandomGeometric(n, radius, seed)
				want := randomGeometricLoop(n, radius, seed)
				if !bytes.Equal(EncodeBinary(got), EncodeBinary(want)) {
					t.Fatalf("n=%d r=%g seed=%d: graphs differ (%d vs %d edges)",
						n, radius, seed, got.NumEdges(), want.NumEdges())
				}
			}
		}
	}
}

// TestNearestLinksTies links isolated points on a lattice, where most
// candidate links tie on distance, so only the (i, j) tie-break decides
// which links join the components.
func TestNearestLinksTies(t *testing.T) {
	const side = 6
	n := side * side
	xs := make([]float64, n)
	ys := make([]float64, n)
	for v := range xs {
		// Shuffled lattice positions with exactly representable spacing.
		p := (v * 17) % n
		xs[v], ys[v] = float64(p%side)*0.125, float64(p/side)*0.125
	}
	comp := make([]int32, n)
	for v := range comp {
		comp[v] = int32(v)
	}
	b := NewBuilder(n)
	for _, l := range nearestLinks(xs, ys, comp, n) {
		b.AddEdge(l[0], l[1], 1)
	}
	want := connectByLoop(NewBuilder(n).MustBuild(), xs, ys)
	if !bytes.Equal(EncodeBinary(b.MustBuild()), EncodeBinary(want)) {
		t.Fatal("lattice links differ from the connect loop's")
	}
}
