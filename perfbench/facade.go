package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	ff "repro"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memetic"
	"repro/internal/order"
	"repro/internal/vcycle"
)

// passes is how many whole passes a pass-based workload sends in d: one per
// every period, at least one. Counting passes instead of watching the clock
// keeps the request mix, and so every median, the same from run to run.
func passes(d, every time.Duration) int {
	if n := int(d / every); n > 1 {
		return n
	}
	return 1
}

// facadeBudget is the facade-default request's only tuning: its budget.
const facadeBudget = 500 * time.Millisecond

// facadeDefault sends the request a facade user makes with no options:
// K, Seed and Budget only, so the method and objective are the defaults.
// The caller waits budget+slack for the answer and then gives up, which
// counts as a failed request.
type facadeDefault struct {
	suite []*instance
	ks    []int
	seed  int64
	pass  int64
}

func setupFacadeDefault(seed int64) (runner, error) {
	ks := []int{8, 32}
	suite, err := facadeSuite(seed, ks)
	if err != nil {
		return nil, err
	}
	return &facadeDefault{suite: suite, ks: ks, seed: seed}, nil
}

func (w *facadeDefault) primary() (*graph.Graph, int) { return w.suite[0].g, 32 }
func (w *facadeDefault) close()                       {}

// run sends whole passes: every instance at every k with two request
// seeds, one pass per 7.5 s of d.
func (w *facadeDefault) run(d time.Duration, tr *tracer) ([]outcome, time.Duration) {
	start := time.Now()
	var outs []outcome
	for n := passes(d, 7500*time.Millisecond); n > 0; n-- {
		for s := int64(0); s < 2; s++ {
			seed := derive(w.seed, w.pass, s)
			for _, in := range w.suite {
				for _, k := range w.ks {
					outs = append(outs, w.request(in, k, seed, s == 0, tr, int64(len(outs))))
				}
			}
		}
		w.pass++
	}
	return outs, time.Since(start)
}

// request sends one facade request. On a traced run, core repeats the solve
// for the layer split when withCore is set (the first seed of each pass, to
// keep traced runs short).
func (w *facadeDefault) request(in *instance, k int, seed int64, withCore bool, tr *tracer, req int64) outcome {
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), facadeBudget+budgetSlack)
	defer cancel()
	call := tr.begin("facade.partition", root, req)
	start := time.Now()
	res, err := ff.PartitionMonitored(ctx, in.g, ff.Options{K: k, Seed: seed, Budget: facadeBudget}, nil)
	o := outcome{wall: time.Since(start), class: fmt.Sprintf("%s/k%d", in.name, k)}
	tr.end(call)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		o.missed("timeout", "%s k=%d: no answer within budget+slack", in.name, k)
	case err != nil:
		o.errored("error", "%s k=%d: %v", in.name, k, err)
	default:
		check(&o, tr, root, req, in.g, k, in.ref[k], res)
		checkBudget(&o, o.wall, facadeBudget)
		tr.value("facade.solve_ms", ms(res.Elapsed))
	}
	if tr != nil && withCore {
		coreRun(tr, root, req, in.g, k, core.Options{Budget: facadeBudget, Seed: seed})
	}
	return o
}

// coreRun repeats a fusion-fission solve on the core solver directly. The
// first trace point marks the end of initialization (Algorithm 2), which
// splits the run into core.init_ms and the events per second after it.
func coreRun(tr *tracer, parent int, req int64, g *graph.Graph, k int, opt core.Options) {
	var res *core.Result
	var el time.Duration
	tr.do("core.partition", parent, req, func() {
		start := time.Now()
		res, _ = core.PartitionContext(context.Background(), g, k, opt)
		el = time.Since(start)
	})
	if res == nil {
		return
	}
	init := el
	if len(res.Trace) > 0 {
		init = res.Trace[0].Elapsed
	}
	tr.value("core.init_ms", ms(init))
	tr.rate("core.events_per_s", int64(res.Steps), el-init)
}

// fixedWork sends three step-capped requests on each of three graphs, with
// three request seeds per graph. Their work is fixed, so wall time tracks
// solver speed, and every repeat must return the identical partition.
// Annealing and multilevel fusion-fission each take about a quarter of a
// second and the memetic generation about three times that, so the median
// falls among the first two and the tail among the memetic requests, never
// between two clusters. A memetic generation takes from 0.7 to 1 s depending
// on its seed alone, so each graph gets request seeds of its own, and a
// run's tail and throughput average nine of them. Every request runs on one
// thread: on a two-core host shared with other tenants, a portfolio of two
// took from one to two times as long as one thread for the same work, which
// measured the neighbours' load and not the solver. The traced run's layer
// sweep still runs a portfolio of two for the engine exchange. Flat
// fusion-fission is left out: its initialization on a 10k-vertex graph takes
// 3 to 9 s from one seed to the next; facade-default and the traced core
// metrics cover it.
type fixedWork struct {
	cases []fixedCase
	reqs  []fixedRequest
}

// fixedCase is one graph with one request seed.
type fixedCase struct {
	g     *graph.Graph
	ref   float64
	seed  int64
	first []*ff.Result // the first pass's answers, for the repeat check
}

type fixedRequest struct {
	name string
	opt  ff.Options
}

const fixedK = 32

func setupFixedWork(seed int64) (runner, error) {
	w := &fixedWork{}
	for gi, gs := range []int64{seed, derive(seed, 5), derive(seed, 6)} {
		g := geo10k(gs)
		ref, err := reference(g, []int{fixedK})
		if err != nil {
			return nil, err
		}
		for s := int64(0); s < 3; s++ {
			w.cases = append(w.cases, fixedCase{g: g, ref: ref[fixedK], seed: derive(seed, 1, int64(gi), s)})
		}
	}
	long := time.Minute // the step caps bind long before this
	w.reqs = []fixedRequest{
		{"anneal-relayout", ff.Options{K: fixedK, Budget: long, MaxSteps: 1_000_000, Method: "annealing", Relayout: true}},
		{"ff-multilevel", ff.Options{K: fixedK, Budget: long, MaxSteps: 10000, Multilevel: true}},
		{"memetic", ff.Options{K: fixedK, Budget: long, MaxSteps: 1, Method: "genetic", MemeticCrossover: true}},
	}
	return w, nil
}

func (w *fixedWork) primary() (*graph.Graph, int) { return w.cases[0].g, fixedK }
func (w *fixedWork) close()                       {}

// run sends one pass (every request on every case) per 7.5 s of d.
func (w *fixedWork) run(d time.Duration, tr *tracer) ([]outcome, time.Duration) {
	start := time.Now()
	var outs []outcome
	for n := passes(d, 7500*time.Millisecond); n > 0; n-- {
		for ci := range w.cases {
			fc := &w.cases[ci]
			results := make([]*ff.Result, len(w.reqs))
			for i := range w.reqs {
				var o outcome
				o, results[i] = w.request(fc, i, results, tr, int64(len(outs)))
				outs = append(outs, o)
			}
			if fc.first == nil {
				fc.first = results
			}
		}
	}
	return outs, time.Since(start)
}

func (w *fixedWork) request(fc *fixedCase, i int, pass []*ff.Result, tr *tracer, req int64) (outcome, *ff.Result) {
	fr := w.reqs[i]
	opt := fr.opt
	opt.Seed = fc.seed
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	mon := ff.NewMonitor()
	call := tr.begin("facade.partition", root, req)
	start := time.Now()
	res, err := ff.PartitionMonitored(context.Background(), fc.g, opt, mon)
	o := outcome{wall: time.Since(start), class: fr.name}
	tr.end(call)
	if err != nil {
		o.errored("error", "%s: %v", fr.name, err)
		return o, nil
	}
	check(&o, tr, root, req, fc.g, fixedK, fc.ref, res)
	if res.Cancelled {
		o.missed("step-cap", "%s: budget cut the run before its step cap", fr.name)
	}
	if f := fc.first; f != nil && f[i] != nil {
		if f[i].Mcut != res.Mcut || partsHash(f[i].Parts) != partsHash(res.Parts) {
			o.errored("nondeterministic", "%s: Mcut %v then %v on an identical request", fr.name, f[i].Mcut, res.Mcut)
		}
	}
	if tr != nil {
		w.layers(fc.g, fc.seed, i, pass, res, mon.Progress().Steps, tr, root, req)
	}
	return o, res
}

// layers records the layer calls behind request i on g.
func (w *fixedWork) layers(g *graph.Graph, seed int64, i int, pass []*ff.Result, res *ff.Result, steps int64, tr *tracer, root int, req int64) {
	ctx := context.Background()
	fr := w.reqs[i]
	tr.value("facade.solve_ms", ms(res.Elapsed))
	switch fr.name {
	case "ff-multilevel":
		cutoff := vcycle.DefaultCoarsenTo(fixedK)
		tr.do("coarsen.hem", root, req, func() { coarsen.HEM(g, cutoff, seed) })
		tr.do("vcycle.build", root, req, func() { _, _ = vcycle.Build(ctx, g, 0, fixedK, seed) })
		if res.Hierarchy != nil {
			tr.value("vcycle.levels", float64(res.Hierarchy.Levels))
		}
	case "anneal-relayout":
		var perm []int32
		tr.do("order.locality", root, req, func() { perm = order.Locality(g) })
		tr.do("graph.relabel", root, req, func() { _, _ = graph.Relabel(g, perm) })
		tr.rate("anneal.steps_per_s", steps, res.Elapsed)
	case "memetic":
		tr.rate("genetic.generations_per_s", steps, res.Elapsed)
		// Recombine the pass's annealing and multilevel fusion-fission answers.
		if a, b := pass[0], pass[1]; a != nil && b != nil {
			tr.do("memetic.recombine", root, req, func() {
				_, _ = memetic.Recombine(ctx, g, fixedK, a.Parts, b.Parts, memetic.Options{Seed: seed})
			})
		}
	}
}
