package fusionfission

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

// Golden determinism anchor for the engine refactor: every method's exact
// partition on a fixed instance, seed and step cap, captured from the
// pre-engine (serial) solvers. The engine's Parallelism: 1 path must stay
// byte-identical to these outputs seed-for-seed, so any refactor that
// perturbs a solver's RNG consumption or loop-step accounting fails here.
//
// Regenerate (deliberately!) with:
//
//	GOLDEN_UPDATE=1 go test -run TestGoldenMethodPartitions .
//
// Besides the per-method entries, the file pins named option-variant runs
// (goldenVariants): "genetic+memetic" captures the memetic V-cycle
// recombination mode of the GA, while the plain "genetic" entry keeps
// guarding that the flat GA is byte-identical with the option off — the
// memetic code path must not consume a single draw from the flat path's RNG
// stream.

const (
	goldenPath     = "testdata/golden_methods.json"
	goldenK        = 6
	goldenSeed     = 7
	goldenMaxSteps = 120
)

type goldenEntry struct {
	Parts []int32 `json:"parts"`
	Mcut  float64 `json:"mcut"`
}

type goldenFile struct {
	Graph    string                 `json:"graph"`
	K        int                    `json:"k"`
	Seed     int64                  `json:"seed"`
	MaxSteps int                    `json:"max_steps"`
	Methods  map[string]goldenEntry `json:"methods"`
}

func goldenGraph() *Graph { return graph.Grid2D(12, 12) }

func goldenOptions(id string) Options {
	return Options{
		K: goldenK, Method: id, Seed: goldenSeed,
		// The step cap binds; the budget exists only so a stalled machine
		// cannot turn a deterministic run into a wall-clock-truncated one.
		MaxSteps: goldenMaxSteps, Budget: time.Hour,
	}
}

// goldenCase is one pinned run: a plain method id, or a named option
// variant on top of it.
type goldenCase struct {
	name string
	opt  Options
}

// goldenCases lists every golden entry: one per method id, plus the named
// option variants.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, id := range allMethodIDs() {
		cases = append(cases, goldenCase{name: id, opt: goldenOptions(id)})
	}
	for _, v := range goldenVariants() {
		cases = append(cases, v)
	}
	return cases
}

// goldenVariants pins option-flag runs beside the per-method entries.
func goldenVariants() []goldenCase {
	memetic := goldenOptions("genetic")
	memetic.MemeticCrossover = true
	return []goldenCase{
		{name: "genetic+memetic", opt: memetic},
	}
}

func TestGoldenMethodPartitions(t *testing.T) {
	g := goldenGraph()

	if os.Getenv("GOLDEN_UPDATE") != "" {
		gf := goldenFile{
			Graph: "grid12x12", K: goldenK, Seed: goldenSeed, MaxSteps: goldenMaxSteps,
			Methods: make(map[string]goldenEntry),
		}
		for _, c := range goldenCases() {
			res, err := Partition(g, c.opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			gf.Methods[c.name] = goldenEntry{Parts: res.Parts, Mcut: res.Mcut}
		}
		buf, err := json.MarshalIndent(gf, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d methods", goldenPath, len(gf.Methods))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(buf, &gf); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := gf.Methods[c.name]
			if !ok {
				t.Fatalf("entry %s missing from golden file; regenerate", c.name)
			}
			res, err := Partition(g, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Parts, want.Parts) {
				t.Errorf("partition drifted from pre-engine golden (seed %d, %d steps)",
					goldenSeed, goldenMaxSteps)
			}
			if diff := res.Mcut - want.Mcut; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("Mcut drifted: got %.12f want %.12f", res.Mcut, want.Mcut)
			}
		})
	}
}

// TestGoldenObjectiveConsistency is the justification gate for golden
// regeneration: whatever run produced a golden entry (pre-engine full
// evaluations or the incremental scoring layer), the recorded Mcut must be
// the exact objective of the recorded partition, recomputed from scratch by
// objective.Evaluate. A regenerated golden whose incremental bookkeeping
// had drifted past 1e-9 would fail here, so a green run certifies that the
// committed partitions and values agree with the ground-truth evaluator.
func TestGoldenObjectiveConsistency(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(buf, &gf); err != nil {
		t.Fatal(err)
	}
	g := goldenGraph()
	for id, entry := range gf.Methods {
		p, err := partition.FromAssignment(g, entry.Parts, goldenK)
		if err != nil {
			t.Errorf("%s: recorded partition invalid: %v", id, err)
			continue
		}
		full := objective.MCut.Evaluate(p)
		if diff := math.Abs(full - entry.Mcut); diff > 1e-9 {
			t.Errorf("%s: recorded Mcut %.12f vs Objective.Evaluate %.12f (|diff| %.3g > 1e-9)",
				id, entry.Mcut, full, diff)
		}
	}
}
