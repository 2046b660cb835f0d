package main

import (
	"fmt"
	"math"
	"math/rand"

	ff "repro"
	"repro/internal/airspace"
	"repro/internal/graph"
)

// instance is one generated graph of the suite with its reference cuts.
type instance struct {
	name string
	g    *graph.Graph
	ref  map[int]float64 // k -> Mcut of the deterministic reference solver
}

// refMethod is the fixed reference every quality ratio divides by: it is
// deterministic, so one solve per (graph, k) in setup is the reference.
const refMethod = "multilevel-oct"

// refSeeds is how many of refMethod's seeds reference tries. The method
// leaves a part with no internal edge, and so an infinite Mcut, on a few
// graphs (about 1 in 15 gnp3k graphs at k=32); the next seed then serves.
const refSeeds = 4

// reference solves g with refMethod for each k and returns the Mcuts.
func reference(g *graph.Graph, ks []int) (map[int]float64, error) {
	out := map[int]float64{}
	for _, k := range ks {
		for seed := int64(0); seed < refSeeds; seed++ {
			res, err := ff.Partition(g, ff.Options{K: k, Method: refMethod, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("reference %s k=%d: %w", refMethod, k, err)
			}
			if !math.IsInf(res.Mcut, 0) && !math.IsNaN(res.Mcut) && res.Mcut > 0 {
				out[k] = res.Mcut
				break
			}
		}
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("reference %s k=%d: no finite Mcut in %d seeds", refMethod, k, refSeeds)
		}
	}
	return out, nil
}

func newInstance(name string, g *graph.Graph, ks []int) (*instance, error) {
	ref, err := reference(g, ks)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &instance{name: name, g: g, ref: ref}, nil
}

// geo10k is the 10k-vertex random geometric graph every earlier benchmark
// of this repository used, drawn from the workload seed.
func geo10k(seed int64) *graph.Graph { return graph.RandomGeometric(10000, 0.02, seed) }

func torus100() *graph.Graph { return graph.Torus2D(100, 100) }

// weightedGrid is a 100x100 grid, the size of torus100, whose edge weights
// are drawn from 1..9.
func weightedGrid(seed int64) *graph.Graph {
	return graph.WeightedGrid2D(100, 100, func(u, v int) float64 {
		h := uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xc2b2ae3d27d4eb4f ^ uint64(seed)*0x165667b19e3779f9
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		return float64(1 + h%9)
	})
}

func airspaceGraph(seed int64) (*graph.Graph, error) {
	spec := airspace.Default()
	spec.Seed = seed
	g, _, err := airspace.Generate(spec)
	return g, err
}

// churn draws a batch that removes frac/2 of g's edges and adds as many new
// unit edges between random vertex pairs, the way the repository's store
// benchmark churns its instance. It returns the batch and the batch that
// undoes it.
func churn(g *graph.Graph, frac float64, r *rand.Rand) (do, undo []graph.EdgeEdit) {
	type uv struct{ u, v int }
	type edge struct {
		uv
		w float64
	}
	var edges []edge
	g.ForEachEdge(func(u, v int, w float64) { edges = append(edges, edge{uv{u, v}, w}) })
	half := int(frac * float64(len(edges)) / 2)
	if half < 1 {
		half = 1
	}
	removed := map[uv]bool{}
	for _, i := range r.Perm(len(edges))[:half] {
		e := edges[i]
		removed[e.uv] = true
		do = append(do, graph.EdgeEdit{Op: "remove", U: e.u, V: e.v})
		undo = append(undo, graph.EdgeEdit{Op: "add", U: e.u, V: e.v, W: e.w})
	}
	n := g.NumVertices()
	added := map[uv]bool{}
	for len(added) < half {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := uv{u, v}
		if added[e] || removed[e] {
			continue
		}
		if _, exists := g.EdgeWeight(u, v); exists {
			continue
		}
		added[e] = true
		do = append(do, graph.EdgeEdit{Op: "add", U: u, V: v, W: 1})
		undo = append(undo, graph.EdgeEdit{Op: "remove", U: u, V: v})
	}
	return do, undo
}

// churned applies a fresh 1% churn batch to g.
func churned(g *graph.Graph, r *rand.Rand) (*graph.Graph, error) {
	do, _ := churn(g, 0.01, r)
	return g.WithEdits(do)
}

// facadeSuite generates the six-instance suite of the facade-default
// workload with references at ks.
func facadeSuite(seed int64, ks []int) ([]*instance, error) {
	r := rand.New(rand.NewSource(seed))
	geo := geo10k(seed)
	geoChurn, err := churned(geo, r)
	if err != nil {
		return nil, err
	}
	air, err := airspaceGraph(seed)
	if err != nil {
		return nil, err
	}
	specs := []struct {
		name string
		g    *graph.Graph
	}{
		{"geo10k", geo},
		{"geo10k-churn", geoChurn},
		{"torus100", torus100()},
		{"gnp3k", graph.GNP(3000, 0.003, seed)},
		{"airspace", air},
		{"wgrid100", weightedGrid(seed)},
	}
	var out []*instance
	for _, s := range specs {
		in, err := newInstance(s.name, s.g, ks)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}
