package coarsen

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkHEM measures one heavy-edge coarsening ladder of the 10k-vertex
// geometric benchmark graph down to the k=32 V-cycle cutoff
// (vcycle.DefaultCoarsenTo(32) = 256 vertices).
//
//	go test -run '^$' -bench BenchmarkHEM ./internal/coarsen/
func BenchmarkHEM(b *testing.B) {
	g := graph.RandomGeometric(10000, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HEM(g, 256, int64(i+1))
	}
}
