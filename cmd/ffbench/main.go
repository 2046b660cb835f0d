// Command ffbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	ffbench table1  [-k 32] [-seed 1] [-budget 10s] [-scale paper|small]
//	ffbench figure1 [-k 32] [-seed 1] [-budget 30s] [-scale paper|small]
//	ffbench ablation [-seed 1] [-budget 2s]
//
// table1 prints the seventeen-method comparison under Cut/Ncut/Mcut (the
// paper's Table 1); figure1 prints the anytime Mcut traces of the three
// metaheuristics with the spectral/multilevel reference levels (the paper's
// Figure 1); ablation quantifies fusion-fission's design choices
// (percolation fission, law learning, part-count drift).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/airspace"
	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/objective"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		k       = fs.Int("k", 32, "number of parts")
		seed    = fs.Int64("seed", 1, "random seed")
		budget  = fs.Duration("budget", 0, "metaheuristic budget (0 = command default)")
		par     = fs.Int("parallelism", 1, "metaheuristic portfolio width (0 = all cores)")
		multi   = fs.Bool("multilevel", false, "run the metaheuristics inside a multilevel V-cycle")
		coarse  = fs.Int("coarsen-to", 0, "V-cycle coarsening cutoff in vertices (0 = default)")
		scale   = fs.String("scale", "paper", "instance scale: paper (762 sectors) or small (180)")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof = fs.String("memprofile", "", "write a heap profile to this file at exit")
		upload  = fs.String("upload", "", "store: also upload the bench instance to this ffserve URL and time remote admission")
		graphID = fs.String("graph-id", "", "store: reuse this stored-graph id on the -upload server instead of uploading")
		jsonOut = fs.Bool("json", false, "anneal/memetic/store: emit one machine-readable JSON object instead of text")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}

	// Hot-path work (solver loops, refinement sweeps) runs inside this
	// process, so profiling a real workload needs no ad-hoc patches: any
	// subcommand accepts -cpuprofile/-memprofile. Profiles are flushed when
	// the command completes; a run aborted by fatal() writes none.
	// The heap-profile defer is registered first so it runs last (LIFO),
	// after StopCPUProfile — its runtime.GC and file write must not bleed
	// into the tail of the CPU profile. It reports failures without
	// os.Exit so one profile's error cannot discard the other.
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ffbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ffbench: memprofile:", err)
			}
		}()
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// The anneal hot-loop probe runs on the BENCH_anneal.json acceptance
	// instance, not the airspace graph, so its steps/second is directly
	// comparable to the committed baseline; -cpuprofile then shows whether
	// the proposal loop is flat (no frame outside scoring above 20%).
	if cmd == "anneal" {
		runAnnealSteps(*k, *seed, *budget, *jsonOut)
		return
	}

	// The store probe runs on the BENCH_store.json instance so its admission
	// ratios are directly comparable to the committed baseline.
	if cmd == "store" {
		runStoreBench(*seed, *upload, *graphID, *jsonOut)
		return
	}

	// The memetic probe runs on the BENCH_memetic.json acceptance instance so
	// its flat/multilevel/memetic Mcut figures are directly comparable to the
	// committed baseline.
	if cmd == "memetic" {
		parallelism := *par
		if parallelism == 0 {
			parallelism = runtime.GOMAXPROCS(0)
		}
		runMemeticBench(*k, *seed, *budget, parallelism, *jsonOut)
		return
	}
	if *jsonOut {
		fatal(fmt.Errorf("%s does not support -json (anneal, memetic, and store do)", cmd))
	}

	g, err := instance(*scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %d sectors, %d flow edges, total flow weight %.0f; k = %d, seed = %d\n\n",
		g.NumVertices(), g.NumEdges(), g.TotalEdgeWeight(), *k, *seed)

	parallelism := *par
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	switch cmd {
	case "table1":
		b := *budget
		if b == 0 {
			b = 10 * time.Second
		}
		rows := experiments.Table1(g, experiments.Table1Options{
			K: *k, Seed: *seed, MetaBudget: b, Parallelism: parallelism,
			Multilevel: *multi, CoarsenTo: *coarse,
		})
		fmt.Println("Table 1 — comparisons between algorithms (metaheuristic budget", b, "per objective)")
		fmt.Print(experiments.FormatTable1(rows))
	case "figure1":
		rejectMultilevel(cmd, *multi, *coarse)
		b := *budget
		if b == 0 {
			b = 30 * time.Second
		}
		res, err := experiments.Figure1(g, experiments.Figure1Options{K: *k, Seed: *seed, Budget: b})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 1 — best Mcut over time (budget", b, "per metaheuristic)")
		fmt.Print(experiments.FormatFigure1(res))
	case "ablation":
		rejectMultilevel(cmd, *multi, *coarse)
		b := *budget
		if b == 0 {
			b = 5 * time.Second
		}
		runAblation(g, *k, *seed, b)
	case "variance":
		b := *budget
		if b == 0 {
			b = 2 * time.Second
		}
		// Keep Workers x Parallelism near the core count, or contention
		// corrupts the per-run timing and budget-bound quality numbers.
		outer := runtime.GOMAXPROCS(0) / parallelism
		if outer < 1 {
			outer = 1
		}
		rows, err := experiments.RunVariance(g, experiments.VarianceOptions{
			K: *k, Budget: b, Objective: objective.MCut, Parallelism: parallelism, Workers: outer,
			Multilevel: *multi, CoarsenTo: *coarse,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Run-to-run variance over 8 seeds (Mcut, budget", b, "per run, parallel):")
		fmt.Print(experiments.FormatVariance(rows))
	default:
		usage()
	}
}

func instance(scale string, seed int64) (*graph.Graph, error) {
	switch scale {
	case "paper":
		spec := airspace.Default()
		spec.Seed = seed
		g, _, err := airspace.Generate(spec)
		return g, err
	case "small":
		g, _, err := airspace.Generate(airspace.Spec{
			Sectors: 180, Edges: 640, Hubs: 12, Flights: 8000, Seed: seed,
		})
		return g, err
	}
	return nil, fmt.Errorf("unknown scale %q", scale)
}

// emitJSON marshals one result object to stdout — the -json contract shared
// by the anneal/memetic/store probes, so CI and tuning scripts can consume
// the figures without scraping the human-readable tables.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// runAnnealSteps times the simulated-annealing proposal loop end to end on
// the 10k-vertex random-geometric graph the committed BENCH_anneal.json is
// measured on (percolation init and auto-temperature probe included).
func runAnnealSteps(k int, seed int64, budget time.Duration, jsonOut bool) {
	g := graph.RandomGeometric(10_000, 0.02, 1)
	if !jsonOut {
		fmt.Printf("instance: RandomGeometric(10000, 0.02, seed 1): %d vertices, %d edges; k = %d, seed = %d\n",
			g.NumVertices(), g.NumEdges(), k, seed)
	}
	if budget == 0 {
		budget = 5 * time.Second // freezing restarts: sustained hot/cold cycles
	}
	steps := 200_000_000
	start := time.Now()
	res, err := anneal.Partition(g, k, anneal.Options{Seed: seed, MaxSteps: steps, Budget: budget})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if jsonOut {
		emitJSON(struct {
			Graph    string  `json:"graph"`
			Vertices int     `json:"vertices"`
			Edges    int     `json:"edges"`
			K        int     `json:"k"`
			Seed     int64   `json:"seed"`
			BudgetS  float64 `json:"budget_s"`
			Steps    int     `json:"steps"`
			ElapsedS float64 `json:"elapsed_s"`
			StepsPS  float64 `json:"steps_per_s"`
			Mcut     float64 `json:"mcut"`
		}{
			Graph:    "RandomGeometric(10000, 0.02, seed 1)",
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			K: k, Seed: seed, BudgetS: budget.Seconds(),
			Steps: res.Steps, ElapsedS: elapsed,
			StepsPS: float64(res.Steps) / elapsed, Mcut: res.Energy,
		})
		return
	}
	fmt.Printf("anneal: %d steps in %.2fs = %.0f steps/s; best Mcut %.6f\n",
		res.Steps, elapsed, float64(res.Steps)/elapsed, res.Energy)
}

// runMemeticBench compares the three genetic configurations of the committed
// BENCH_memetic.json on its acceptance instance: flat crossover, the GA
// inside a multilevel V-cycle, and memetic cut-protecting V-cycle
// recombination — all at the same wall-clock budget and portfolio width.
func runMemeticBench(k int, seed int64, budget time.Duration, parallelism int, jsonOut bool) {
	g := graph.RandomGeometric(10_000, 0.02, 1)
	if budget == 0 {
		budget = 4 * time.Second
	}
	if !jsonOut {
		fmt.Printf("instance: RandomGeometric(10000, 0.02, seed 1): %d vertices, %d edges; k = %d, seed = %d, budget %s, width %d\n\n",
			g.NumVertices(), g.NumEdges(), k, seed, budget, parallelism)
	}
	spec, err := experiments.Method("genetic")
	if err != nil {
		fatal(err)
	}
	base := experiments.RunConfig{
		Objective: objective.MCut, Budget: budget, MaxSteps: 1 << 30,
		Seed: seed, Parallelism: parallelism,
	}
	variants := []struct {
		name string
		mod  func(*experiments.RunConfig)
	}{
		{"flat crossover", func(*experiments.RunConfig) {}},
		{"multilevel V-cycle GA", func(c *experiments.RunConfig) { c.Multilevel = true }},
		{"memetic recombination", func(c *experiments.RunConfig) { c.MemeticCrossover = true }},
	}
	type variantResult struct {
		Name     string  `json:"name"`
		Mcut     float64 `json:"mcut,omitempty"`
		ElapsedS float64 `json:"elapsed_s,omitempty"`
		Error    string  `json:"error,omitempty"`
	}
	var results []variantResult
	if !jsonOut {
		fmt.Printf("%-24s %10s %10s\n", "genetic variant", "Mcut", "elapsed")
	}
	for _, v := range variants {
		cfg := base
		v.mod(&cfg)
		start := time.Now()
		res, err := spec.Run(context.Background(), g, k, cfg)
		if err != nil {
			if jsonOut {
				results = append(results, variantResult{Name: v.name, Error: err.Error()})
			} else {
				fmt.Printf("%-24s ERROR: %v\n", v.name, err)
			}
			continue
		}
		elapsed := time.Since(start)
		if jsonOut {
			results = append(results, variantResult{
				Name: v.name, Mcut: objective.MCut.Evaluate(res.P), ElapsedS: elapsed.Seconds(),
			})
		} else {
			fmt.Printf("%-24s %10.4f %10s\n", v.name, objective.MCut.Evaluate(res.P), elapsed.Round(time.Millisecond))
		}
	}
	if jsonOut {
		emitJSON(struct {
			Graph       string          `json:"graph"`
			Vertices    int             `json:"vertices"`
			Edges       int             `json:"edges"`
			K           int             `json:"k"`
			Seed        int64           `json:"seed"`
			BudgetS     float64         `json:"budget_s"`
			Parallelism int             `json:"parallelism"`
			Variants    []variantResult `json:"variants"`
		}{
			Graph:    "RandomGeometric(10000, 0.02, seed 1)",
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			K: k, Seed: seed, BudgetS: budget.Seconds(),
			Parallelism: parallelism, Variants: results,
		})
	}
}

// runAblation quantifies the fusion-fission design choices DESIGN.md calls
// out: percolation fission vs random splits, law learning vs uniform laws,
// and the value of letting the part count drift.
func runAblation(g *graph.Graph, k int, seed int64, budget time.Duration) {
	type variant struct {
		name string
		opt  core.Options
	}
	base := core.Options{Objective: objective.MCut, Budget: budget, MaxSteps: 1 << 30, Seed: seed}
	vs := []variant{
		{"full fusion-fission", base},
		{"random splits (no percolation)", withf(base, func(o *core.Options) { o.DisablePercolationFission = true })},
		{"uniform laws (no learning)", withf(base, func(o *core.Options) { o.DisableLawLearning = true })},
	}
	fmt.Printf("Ablation — Mcut at k=%d, budget %s per variant\n\n", k, budget)
	fmt.Printf("%-34s %10s %8s\n", "variant", "Mcut", "steps")
	for _, v := range vs {
		res, err := core.Partition(g, k, v.opt)
		if err != nil {
			fmt.Printf("%-34s ERROR: %v\n", v.name, err)
			continue
		}
		fmt.Printf("%-34s %10.2f %8d\n", v.name, res.Energy, res.Steps)
	}

	// Part-count drift: the paper reports FF returns good solutions from
	// 27 to 38 parts around the 32-part target.
	res, err := core.Partition(g, k, base)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nPart-count drift around the target (best Mcut per k'):\n")
	fmt.Printf("%6s %10s\n", "k'", "Mcut")
	for kk := k - 6; kk <= k+6; kk++ {
		if m, ok := res.BestPerK[kk]; ok {
			fmt.Printf("%6d %10.2f\n", kk, m)
		}
	}
}

func withf(o core.Options, f func(*core.Options)) core.Options {
	f(&o)
	return o
}

// rejectMultilevel refuses -multilevel/-coarsen-to on subcommands that do
// not thread them through, rather than silently printing flat-search
// numbers under a V-cycle label.
func rejectMultilevel(cmd string, multi bool, coarse int) {
	if multi || coarse != 0 {
		fatal(fmt.Errorf("%s does not support -multilevel/-coarsen-to (use table1 or variance)", cmd))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ffbench <table1|figure1|ablation|variance|anneal|store|memetic> [flags]
  table1   reproduce the paper's Table 1 (17 methods x 3 objectives)
  figure1  reproduce the paper's Figure 1 (anytime Mcut traces)
  ablation quantify fusion-fission design choices
  variance metaheuristic spread over 8 seeds (parallel runs)
  anneal   time the SA proposal loop on the BENCH_anneal.json instance
  store    time graph admission (METIS parse vs binary CSR vs graph store)
  memetic  compare flat / multilevel / memetic GA on the BENCH_memetic.json instance
flags: -k N -seed N -budget DUR -scale paper|small -parallelism N
       -multilevel -coarsen-to N   (table1 and variance only)
       -upload URL -graph-id ID    (store only: remote admission timing)
       -json                       (anneal, memetic, store: machine-readable output)
       -cpuprofile FILE -memprofile FILE   (pprof profiles of the run)`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffbench:", err)
	os.Exit(1)
}
