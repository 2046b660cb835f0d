package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	ff "repro"
	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/genetic"
	"repro/internal/graph"
	"repro/internal/memetic"
	"repro/internal/multilevel"
	"repro/internal/objective"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/store"
	"repro/internal/vcycle"
)

// sweepReq is the request id the sweep's spans carry.
const sweepReq = -1

// sweep measures, on g at k and into its own tracer, every layer the
// workload's own requests did not reach, so a traced run reports every
// layer metric on every workload. Each group of calls runs only when have
// lacks one of its metrics.
func sweep(have func(metric string) bool, g *graph.Graph, k int, seed int64) (*tracer, error) {
	tr := newTracer()
	return tr, sweepInto(tr, have, g, k, seed)
}

func sweepInto(tr *tracer, have func(string) bool, g *graph.Graph, k int, seed int64) error {
	ctx := context.Background()
	root := tr.begin("sweep", -1, sweepReq)
	defer tr.end(root)
	missing := func(names ...string) bool {
		for _, n := range names {
			if !have(n) {
				return true
			}
		}
		return false
	}
	timed := func(name string, f func()) { tr.do(name, root, sweepReq, f) }

	base, err := multilevel.PartitionKWay(g, k, multilevel.Options{Seed: seed})
	if err != nil {
		return err
	}
	other, err := multilevel.PartitionKWay(g, k, multilevel.Options{Seed: seed + 1})
	if err != nil {
		return err
	}
	if missing("server.overhead_ms", "server.cache_hit_ratio", "server.decode_request_ms",
		"server.encode_response_ms", "graph.read_metis_ms", "graph.build_edgelist_ms", "graph.digest_ms") {
		if err := sweepServer(tr, root, g, k, seed); err != nil {
			return err
		}
	}
	if missing("graph.with_edits_ms", "graph.encode_binary_ms", "store.put_ms", "store.get_ms", "store.mem_bytes", "refine.kway_ms") {
		do, _ := churn(g, 0.01, rand.New(rand.NewSource(seed)))
		var derived *graph.Graph
		timed("graph.with_edits", func() { derived, err = g.WithEdits(do) })
		if err != nil {
			return err
		}
		timed("graph.encode_binary", func() { graph.EncodeBinary(derived) })
		st, err := store.Open("", 0)
		if err != nil {
			return err
		}
		var id string
		timed("store.put", func() { id, _, err = st.Put(derived) })
		if err != nil {
			return err
		}
		timed("store.get", func() { st.Get(id) })
		tr.value("store.mem_bytes", float64(st.Stats().MemBytes))
		p, err := partition.FromAssignment(derived, base.Assignment(), k)
		if err != nil {
			return err
		}
		timed("refine.kway", func() { refine.KWay(p, refine.KWayOptions{Objective: objective.MCut}) })
	}
	if missing("multilevel.kway_ms") {
		timed("multilevel.kway", func() { _, err = multilevel.PartitionKWay(g, k, multilevel.Options{Seed: seed}) })
	}
	if missing("core.init_ms", "core.events_per_s") {
		coreRun(tr, root, sweepReq, g, k, core.Options{MaxSteps: 300, Seed: seed})
	}
	if missing("anneal.steps_per_s") {
		var res *anneal.Result
		start := time.Now()
		timed("anneal.partition", func() { res, err = anneal.PartitionContext(ctx, g, k, anneal.Options{MaxSteps: 1_000_000, Seed: seed}) })
		if err != nil {
			return err
		}
		tr.rate("anneal.steps_per_s", int64(res.Steps), time.Since(start))
	}
	if missing("order.locality_ms", "graph.relabel_ms") {
		var perm []int32
		timed("order.locality", func() { perm = order.Locality(g) })
		timed("graph.relabel", func() { _, err = graph.Relabel(g, perm) })
	}
	if missing("coarsen.hem_ms", "vcycle.build_ms", "vcycle.levels") {
		timed("coarsen.hem", func() { coarsen.HEM(g, vcycle.DefaultCoarsenTo(k), seed) })
		var h *vcycle.Hierarchy
		timed("vcycle.build", func() { h, err = vcycle.Build(ctx, g, 0, k, seed) })
		if err != nil {
			return err
		}
		tr.value("vcycle.levels", float64(h.Stats().Levels))
	}
	if missing("memetic.recombine_ms") {
		timed("memetic.recombine", func() {
			_, err = memetic.Recombine(ctx, g, k, base.Assignment(), other.Assignment(), memetic.Options{Seed: seed})
		})
	}
	if missing("genetic.generations_per_s") {
		var res *genetic.Result
		start := time.Now()
		timed("genetic.partition", func() {
			res, err = genetic.PartitionContext(ctx, g, k, genetic.Options{Generations: 2, MemeticCrossover: true, Seed: seed})
		})
		if err != nil {
			return err
		}
		tr.rate("genetic.generations_per_s", int64(res.Generations), time.Since(start))
	}
	if missing("engine.exchange_rounds") {
		var res *ff.Result
		timed("facade.partition", func() {
			res, err = ff.Partition(g, ff.Options{K: k, Seed: seed, MaxSteps: 20000, Multilevel: true, Parallelism: 2, Budget: time.Minute})
		})
		if err != nil {
			return err
		}
		tr.value("engine.exchange_rounds", float64(res.ExchangeRounds))
	}
	if missing("facade.solve_ms") {
		var res *ff.Result
		timed("facade.partition", func() { res, err = ff.Partition(g, ff.Options{K: k, Seed: seed, Method: admitMethod}) })
		if err != nil {
			return err
		}
		tr.value("facade.solve_ms", ms(res.Elapsed))
	}
	if missing("objective.evaluate_all_ms") {
		timed("objective.evaluate_all", func() { _, err = evalMcut(g, base.Assignment(), k) })
	}
	return err
}

// sweepServer posts g inline to a fresh in-process ffserve twice, a miss
// and then a cache hit, with the admission calls shadowed alongside.
func sweepServer(tr *tracer, root int, g *graph.Graph, k int, seed int64) error {
	svc, err := startService()
	if err != nil {
		return err
	}
	defer svc.close()
	metis, edges, err := graphSpecs(g)
	if err != nil {
		return err
	}
	for i, spec := range [][]byte{metis, edges} {
		body := fmt.Appendf(nil, `{"graph":%s,"k":%d,"method":%q,"seed":%d}`, spec, k, admitMethod, seed)
		admission(tr, root, sweepReq, body)
		var o outcome
		call := tr.begin("server.http", root, sweepReq)
		start := time.Now()
		resp := svc.partition(&o, body)
		wall := time.Since(start)
		tr.end(call)
		if resp == nil || resp.Result == nil {
			return fmt.Errorf("sweep request %d: %s", i, o.fail)
		}
		encodeResponse(tr, root, sweepReq, resp)
		if resp.Cached {
			tr.value("server.overhead_ms", ms(wall))
		} else {
			tr.value("server.overhead_ms", ms(wall-resp.Result.Elapsed))
		}
	}
	return svc.recordHealth(tr)
}
