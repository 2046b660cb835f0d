package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
)

// Serial-vs-portfolio quality comparison. A portfolio at equal wall-clock
// budget on a multi-core machine gives every worker the serial run's step
// budget, so the comparison is run step-capped: serial gets S steps, each
// of the 4 workers gets the same S — the multi-core equal-wall-clock
// equivalent that stays meaningful (and deterministic) on any CI core
// count. The committed BENCH_portfolio.json baseline is regenerated with:
//
//	BENCH_PORTFOLIO_BASELINE=1 go test -run TestWritePortfolioBaseline -timeout 60m ./internal/experiments/
//
// on the 10k-vertex geometric graph; the small benchmark below is the CI
// smoke-sized version of the same measurement.

// benchMethod describes one portfolio-vs-serial measurement.
type benchMethod struct {
	id    string
	steps int // per run serially, per worker in the portfolio
}

func benchSolve(b testing.TB, g *graph.Graph, id string, k, steps, parallelism int, seed int64) float64 {
	res, err := mustMethod(b, id).Run(context.Background(), g, k, RunConfig{
		Objective: objective.MCut, MaxSteps: steps, Seed: seed, Parallelism: parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	return objective.MCut.Evaluate(res.P)
}

// BenchmarkPortfolioVsSerial reports serial and 4-worker Mcut as metrics on
// a small instance; -benchtime 1x keeps it smoke-test sized.
func BenchmarkPortfolioVsSerial(b *testing.B) {
	g := graph.RandomGeometric(1000, 0.06, 1)
	const k = 8
	for _, m := range []benchMethod{
		{"fusion-fission", 400},
		{"annealing", 20_000},
		{"genetic", 6},
	} {
		b.Run(m.id, func(b *testing.B) {
			var serial, par float64
			for i := 0; i < b.N; i++ {
				serial = benchSolve(b, g, m.id, k, m.steps, 1, 1)
				par = benchSolve(b, g, m.id, k, m.steps, 4, 1)
			}
			b.ReportMetric(serial, "mcut_serial")
			b.ReportMetric(par, "mcut_portfolio4")
		})
	}
}

// portfolioBaseline is the committed BENCH_portfolio.json document.
type portfolioBaseline struct {
	Graph       string             `json:"graph"`
	K           int                `json:"k"`
	Seeds       []int64            `json:"seeds"`
	Parallelism int                `json:"parallelism"`
	Note        string             `json:"note"`
	Methods     map[string]*series `json:"methods"`
}

type series struct {
	StepsPerWorker int       `json:"steps_per_worker"`
	SerialMcut     []float64 `json:"serial_mcut"`
	Portfolio4Mcut []float64 `json:"portfolio4_mcut"`
	SerialMean     float64   `json:"serial_mean"`
	Portfolio4Mean float64   `json:"portfolio4_mean"`
}

// TestWritePortfolioBaseline regenerates BENCH_portfolio.json (guarded by
// BENCH_PORTFOLIO_BASELINE=1; takes minutes). It fails if the 4-worker
// portfolio's mean Mcut exceeds the serial mean for any method, so a
// committed baseline always witnesses the portfolio's advantage.
func TestWritePortfolioBaseline(t *testing.T) {
	if os.Getenv("BENCH_PORTFOLIO_BASELINE") == "" {
		t.Skip("set BENCH_PORTFOLIO_BASELINE=1 to regenerate BENCH_portfolio.json")
	}
	g := graph.RandomGeometric(10_000, 0.02, 1)
	doc := portfolioBaseline{
		Graph:       fmt.Sprintf("RandomGeometric(10000, 0.02, seed 1): %d vertices, %d edges", g.NumVertices(), g.NumEdges()),
		K:           32,
		Seeds:       []int64{1, 2, 3, 4, 5},
		Parallelism: 4,
		Note: "step-capped runs: the portfolio gives each of its 4 workers the serial step budget, " +
			"which is what an equal wall-clock budget buys on a 4-core machine",
		Methods: map[string]*series{},
	}
	for _, m := range []benchMethod{
		{"fusion-fission", 3000},
		{"annealing", 150_000},
		{"genetic", 12},
	} {
		s := &series{StepsPerWorker: m.steps}
		for _, seed := range doc.Seeds {
			s.SerialMcut = append(s.SerialMcut, benchSolve(t, g, m.id, doc.K, m.steps, 1, seed))
			s.Portfolio4Mcut = append(s.Portfolio4Mcut, benchSolve(t, g, m.id, doc.K, m.steps, doc.Parallelism, seed))
		}
		s.SerialMean = mean(s.SerialMcut)
		s.Portfolio4Mean = mean(s.Portfolio4Mcut)
		// The committed document keys methods by their row label.
		name := mustMethod(t, m.id).Name
		doc.Methods[name] = s
		t.Logf("%-22s serial mean %.4f, portfolio mean %.4f", name, s.SerialMean, s.Portfolio4Mean)
		if s.Portfolio4Mean > s.SerialMean {
			t.Errorf("%s: portfolio mean %.4f worse than serial %.4f", name, s.Portfolio4Mean, s.SerialMean)
		}
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_portfolio.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
