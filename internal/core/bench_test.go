package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// The fusion-fission hot path, split the way a request spends it: the
// Algorithm 2 initialization (ms/init) and the Algorithm 1 events that
// follow it (events/s), on the 10k-vertex geometric graph at k=8 and k=32.
//
//	go test -run '^$' -bench 'BenchmarkInit|BenchmarkEvents' ./internal/core/

func benchGraph() *graph.Graph { return graph.RandomGeometric(10000, 0.02, 1) }

func BenchmarkInit(b *testing.B) {
	g := benchGraph()
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := newSearch(g, k, Options{Seed: int64(i + 1)}.withDefaults())
				s.initialize(context.Background())
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/init")
		})
	}
}

func BenchmarkEvents(b *testing.B) {
	g := benchGraph()
	const events = 200
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			// One initialized molecule, outside the timer; every run starts
			// from it, so only events (and the per-run clone) are timed.
			first, err := Partition(g, k, Options{Seed: 1, MaxSteps: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := Partition(g, k, Options{Seed: int64(i + 1), MaxSteps: events, Initial: first.Best})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}
