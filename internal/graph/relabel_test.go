package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// TestRelabelLocalityMatchesBuilder checks Relabel under the locality
// permutations the relayout path applies, on unit and weighted graphs with
// and without self-loops, against the Builder reference.
func TestRelabelLocalityMatchesBuilder(t *testing.T) {
	weighted := graph.WeightedGrid2D(30, 40, func(u, v int) float64 { return 0.1 + float64((u*7+v*13)%11)/3 })
	b := graph.NewBuilder(500)
	graph.RandomGeometric(500, 0.08, 6).ForEachEdge(func(u, v int, _ float64) {
		b.AddEdge(u, v, 0.25+float64((u+3*v)%9)/7)
	})
	for v := 0; v < 500; v += 3 {
		b.SetVertexWeight(v, 1.5+float64(v%4))
		b.AddSelfLoop(v, 0.2+float64(v%5)/9)
	}
	loopy := b.MustBuild()
	for name, g := range map[string]*graph.Graph{
		"geo2000":  graph.RandomGeometric(2000, 0.04, 5),
		"wgrid":    weighted,
		"loopy500": loopy,
	} {
		perm := order.Locality(g)
		got, err := graph.Relabel(g, perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graph.SameAsBuilder(t, name, got, graph.BuilderRelabel(g, perm))
	}
}

// BenchmarkRelabel measures the relayout step: relabeling the 10k-vertex
// geometric benchmark graph by its locality order.
//
//	go test -run '^$' -bench BenchmarkRelabel ./internal/graph/
func BenchmarkRelabel(b *testing.B) {
	g := graph.RandomGeometric(10000, 0.02, 1)
	perm := order.Locality(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Relabel(g, perm); err != nil {
			b.Fatal(err)
		}
	}
}
