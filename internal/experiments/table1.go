package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
)

// Table1Row is one line of the reproduced Table 1.
type Table1Row struct {
	Name    string
	Cut     float64 // paper convention, divided by 1000 at print time
	Ncut    float64
	Mcut    float64
	Elapsed time.Duration
	Err     string
}

// Table1Options configures the Table 1 run.
type Table1Options struct {
	// K is the part count (paper: 32).
	K int
	// Seed drives every stochastic method.
	Seed int64
	// MetaBudget is the wall-clock budget per metaheuristic per objective
	// (default 2s). The paper ran minutes-long searches; the shape of the
	// comparison is budget-stable, see EXPERIMENTS.md.
	MetaBudget time.Duration
	// MetaSteps optionally caps steps instead of (or with) time.
	MetaSteps int
	// Parallelism is the metaheuristics' portfolio width (<= 1 serial).
	Parallelism int
	// Multilevel runs each supporting metaheuristic inside a V-cycle
	// (RunConfig.Multilevel); CoarsenTo is its coarsening cutoff (0 =
	// default).
	Multilevel bool
	CoarsenTo  int
}

// Table1 reproduces the paper's Table 1 on g: every classical method runs
// once and is scored under all three objectives; every metaheuristic is run
// once per objective, targeting that objective — the adaptivity the paper
// highlights ("this method can easily change of goals, ie. criteria").
func Table1(g *graph.Graph, opt Table1Options) []Table1Row {
	if opt.K == 0 {
		opt.K = 32
	}
	if opt.MetaBudget == 0 {
		opt.MetaBudget = 2 * time.Second
	}
	var rows []Table1Row
	for _, m := range Methods {
		if m.Extension {
			continue
		}
		row := Table1Row{Name: m.Name}
		start := time.Now()
		if !m.Metaheuristic {
			res, err := m.Run(context.Background(), g, opt.K, RunConfig{Objective: objective.MCut, Seed: opt.Seed})
			if err != nil {
				row.Err = err.Error()
			} else {
				row.Cut, row.Ncut, row.Mcut = objective.EvaluateAll(res.P)
			}
		} else {
			for _, obj := range objective.All {
				res, err := m.Run(context.Background(), g, opt.K, RunConfig{
					Objective: obj, Budget: opt.MetaBudget, MaxSteps: opt.MetaSteps,
					Seed: opt.Seed, Parallelism: opt.Parallelism,
					Multilevel: opt.Multilevel && m.Multilevel, CoarsenTo: opt.CoarsenTo,
				})
				if err != nil {
					row.Err = err.Error()
					break
				}
				switch obj {
				case objective.Cut:
					row.Cut = objective.Cut.Evaluate(res.P)
				case objective.NCut:
					row.Ncut = objective.NCut.Evaluate(res.P)
				case objective.MCut:
					row.Mcut = objective.MCut.Evaluate(res.P)
				}
			}
		}
		row.Elapsed = time.Since(start)
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders rows in the paper's layout ("Cut results are divided
// by 1000").
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %10s\n", "Method", "Cut/1000", "Ncut", "Mcut", "time")
	b.WriteString(strings.Repeat("-", 74))
	b.WriteByte('\n')
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-28s ERROR: %s\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-28s %10.1f %10.2f %10.2f %10s\n",
			r.Name, r.Cut/1000, r.Ncut, r.Mcut, r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}
