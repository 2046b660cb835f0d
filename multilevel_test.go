package fusionfission_test

import (
	"encoding/json"
	"reflect"
	"testing"

	ff "repro"
	"repro/internal/graph"
)

func TestMultilevelOptionsNormalize(t *testing.T) {
	// Supported metaheuristic keeps the flags.
	o, err := ff.Normalize(ff.Options{K: 4, Method: "fusion-fission", Multilevel: true, CoarsenTo: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Multilevel || o.CoarsenTo != 200 {
		t.Fatalf("normalized = %+v, want multilevel kept", o)
	}
	// CoarsenTo without Multilevel is cleared, so equivalent requests land
	// on the same cache key.
	o, err = ff.Normalize(ff.Options{K: 4, Method: "fusion-fission", CoarsenTo: 200})
	if err != nil {
		t.Fatal(err)
	}
	if o.Multilevel || o.CoarsenTo != 0 {
		t.Fatalf("normalized = %+v, want coarsen_to cleared", o)
	}
	// Non-supporting (classical) methods get both flags cleared, like
	// Parallelism pinning.
	for _, method := range []string{"multilevel-bi", "spectral-lanc-bi"} {
		o, err = ff.Normalize(ff.Options{K: 4, Method: method, Multilevel: true, CoarsenTo: 64})
		if err != nil {
			t.Fatal(err)
		}
		if o.Multilevel || o.CoarsenTo != 0 {
			t.Fatalf("%s: normalized = %+v, want multilevel cleared", method, o)
		}
	}
	// Negative cutoffs are rejected.
	if _, err := ff.Normalize(ff.Options{K: 4, CoarsenTo: -1}); err == nil {
		t.Fatal("negative CoarsenTo accepted")
	}
}

func TestMultilevelOptionsJSONRoundTrip(t *testing.T) {
	in := ff.Options{K: 8, Method: "annealing", Multilevel: true, CoarsenTo: 96, Parallelism: 2}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ff.Options
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round-trip: %+v != %+v", out, in)
	}
	// The wire names are part of the HTTP API contract.
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["multilevel"]; !ok {
		t.Fatalf("no \"multilevel\" key in %s", data)
	}
	if _, ok := wire["coarsen_to"]; !ok {
		t.Fatalf("no \"coarsen_to\" key in %s", data)
	}
}

func TestMultilevelPartitionEndToEnd(t *testing.T) {
	g := graph.RandomGeometric(700, 0.07, 1)
	res, err := ff.Partition(g, ff.Options{
		K: 8, Method: "fusion-fission", Seed: 1, MaxSteps: 150,
		Multilevel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParts != 8 || len(res.Parts) != 700 {
		t.Fatalf("parts=%d len=%d", res.NumParts, len(res.Parts))
	}
	h := res.Hierarchy
	if h == nil {
		t.Fatal("no hierarchy stats on a multilevel run")
	}
	if h.Levels < 1 || h.CoarsestVertices >= 700 || len(h.VertexCounts) != h.Levels+1 {
		t.Fatalf("hierarchy = %+v", h)
	}
	// Hierarchy stats travel through the Result's JSON form.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["hierarchy"]; !ok {
		t.Fatal("no \"hierarchy\" key in result JSON")
	}

	// A flat run reports none.
	res, err = ff.Partition(g, ff.Options{K: 8, Method: "fusion-fission", Seed: 1, MaxSteps: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hierarchy != nil {
		t.Fatal("flat run reported hierarchy stats")
	}
}

// TestMethodInfosMultilevelFlags pins the whole method table as the facade
// and GET /v1/methods publish it: order, ids, labels and every capability
// flag, together with the Methods/ExtensionMethods/ValidMethod views.
func TestMethodInfosMultilevelFlags(t *testing.T) {
	want := []ff.MethodInfo{
		{ID: "annealing", Label: "Simulated annealing", Metaheuristic: true, Multilevel: true},
		{ID: "ant-colony", Label: "Ant colony", Metaheuristic: true, Multilevel: true},
		{ID: "fusion-fission", Label: "Fusion Fission", Metaheuristic: true, Multilevel: true},
		{ID: "linear-bi", Label: "Linear (Bi)"},
		{ID: "linear-bi-kl", Label: "Linear (Bi, KL)"},
		{ID: "linear-oct-kl", Label: "Linear (Oct, KL)"},
		{ID: "multilevel-bi", Label: "Multilevel (Bi)"},
		{ID: "multilevel-oct", Label: "Multilevel (Oct)"},
		{ID: "percolation", Label: "Percolation"},
		{ID: "spectral-lanc-bi", Label: "Spectral (Lanc, Bi)"},
		{ID: "spectral-lanc-bi-kl", Label: "Spectral (Lanc, Bi, KL)"},
		{ID: "spectral-lanc-oct", Label: "Spectral (Lanc, Oct)"},
		{ID: "spectral-lanc-oct-kl", Label: "Spectral (Lanc, Oct, KL)"},
		{ID: "spectral-rqi-bi", Label: "Spectral (RQI, Bi)"},
		{ID: "spectral-rqi-bi-kl", Label: "Spectral (RQI, Bi, KL)"},
		{ID: "spectral-rqi-oct", Label: "Spectral (RQI, Oct)"},
		{ID: "spectral-rqi-oct-kl", Label: "Spectral (RQI, Oct, KL)"},
		{ID: "genetic", Label: "Genetic algorithm", Extension: true, Metaheuristic: true, Multilevel: true, Memetic: true},
		{ID: "multilevel-kway", Label: "Multilevel (KWay)", Extension: true},
		{ID: "random", Label: "Random", Extension: true},
		{ID: "scattered", Label: "Scattered", Extension: true},
	}
	if got := ff.MethodInfos(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MethodInfos() =\n%+v\nwant\n%+v", got, want)
	}
	var table1, ext []string
	for _, mi := range want {
		if mi.Extension {
			ext = append(ext, mi.ID)
		} else {
			table1 = append(table1, mi.ID)
		}
		if !ff.ValidMethod(mi.ID) {
			t.Errorf("ValidMethod(%q) = false", mi.ID)
		}
	}
	if got := ff.Methods(); !reflect.DeepEqual(got, table1) {
		t.Errorf("Methods() = %v, want the 17 Table 1 rows %v", got, table1)
	}
	if got := ff.ExtensionMethods(); !reflect.DeepEqual(got, ext) {
		t.Errorf("ExtensionMethods() = %v, want %v", got, ext)
	}
	if ff.ValidMethod("Fusion Fission") {
		t.Error("a label was accepted as a method id")
	}
}
