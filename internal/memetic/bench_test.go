package memetic

import (
	"context"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/graph"
)

// blockyParent is a k-way labeling of g with the blocky cut structure of a
// real partition: a round-robin labeling of the coarsest vertices of a
// heavy-edge ladder, projected back to g.
func blockyParent(g *graph.Graph, k int, seed int64) []int32 {
	ladder := coarsen.HEM(g, 4*k, seed)
	assign := make([]int32, ladder[len(ladder)-1].G.NumVertices())
	for c := range assign {
		assign[c] = int32(c % k)
	}
	for li := len(ladder) - 1; li >= 0; li-- {
		assign = ladder[li].Project(assign)
	}
	return assign
}

// BenchmarkRecombine measures one memetic recombination of two blocky k=32
// parents on the 10k-vertex geometric benchmark graph.
//
//	go test -run '^$' -bench BenchmarkRecombine ./internal/memetic/
func BenchmarkRecombine(b *testing.B) {
	const k = 32
	g := graph.RandomGeometric(10000, 0.02, 1)
	pa, pb := blockyParent(g, k, 1), blockyParent(g, k, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recombine(context.Background(), g, k, pa, pb, Options{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
