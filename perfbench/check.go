package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	ff "repro"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
)

const (
	// ratioCeiling caps the Mcut ratio and is what a failed request counts
	// as, so a failure always ranks worst and fixing one never reads as a
	// quality regression.
	ratioCeiling = 10.0
	// budgetSlack is how far past its budget a budget-driven request may
	// run before it counts as failed.
	budgetSlack = 100 * time.Millisecond
	// mcutTolerance is the relative gap allowed between a reported Mcut and
	// the one recomputed from the returned parts.
	mcutTolerance = 1e-9
)

// outcome is one timed request as the validator saw it.
type outcome struct {
	wall  time.Duration
	ratio float64 // Mcut over the reference Mcut, capped; ratioCeiling on failure
	fail  string  // why the request failed; "" when it succeeded
	kind  string  // the failure's class, for counting
	class string  // the request's type, for like-with-like comparisons
	// broken marks a failure that is an errored operation or an incorrect
	// output (as opposed to a slow or poor but valid answer). Any broken
	// request makes the run incorrect.
	broken bool
	// untimed marks a request outside the timed phase, such as one that
	// only fills a cache: it is validated and counted as attempted, but it
	// stays out of the metrics.
	untimed bool
}

// missed marks o failed with a valid but unacceptable answer.
func (o *outcome) missed(kind, format string, args ...any) {
	if o.fail == "" {
		o.kind, o.fail = kind, fmt.Sprintf(format, args...)
		o.ratio = ratioCeiling
	}
}

// errored marks o failed with an error or an incorrect output.
func (o *outcome) errored(kind, format string, args ...any) {
	if !o.broken {
		o.kind, o.fail = kind, fmt.Sprintf(format, args...)
		o.ratio = ratioCeiling
		o.broken = true
	}
}

func sameMcut(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= mcutTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// evalMcut recomputes the Mcut of assignment parts on g with k parts.
func evalMcut(g *graph.Graph, parts []int32, k int) (float64, error) {
	p, err := partition.FromAssignment(g, parts, k)
	if err != nil {
		return 0, err
	}
	_, _, mcut := objective.EvaluateAll(p)
	return mcut, nil
}

// check validates res as the answer for (g, k) against the reference Mcut
// ref and fills o's verdict and ratio. The recomputation runs inside an
// objective.evaluate_all span when tr is non-nil.
func check(o *outcome, tr *tracer, parent int, req int64, g *graph.Graph, k int, ref float64, res *ff.Result) {
	if res == nil {
		o.errored("no-result", "no result")
		return
	}
	if len(res.Parts) != g.NumVertices() {
		o.errored("parts-length", "%d parts for %d vertices", len(res.Parts), g.NumVertices())
		return
	}
	for v, a := range res.Parts {
		if a < 0 || int(a) >= k {
			o.errored("part-range", "vertex %d in part %d outside [0,%d)", v, a, k)
			return
		}
	}
	var mcut float64
	var err error
	tr.do("objective.evaluate_all", parent, req, func() { mcut, err = evalMcut(g, res.Parts, k) })
	if err != nil {
		o.errored("recompute", "recompute: %v", err)
		return
	}
	if !sameMcut(mcut, res.Mcut) {
		o.errored("mcut-mismatch", "reported Mcut %v, recomputed %v", res.Mcut, mcut)
		return
	}
	if res.NumParts != k {
		o.missed("part-count", "%d parts, want %d", res.NumParts, k)
		return
	}
	if math.IsInf(mcut, 0) || math.IsNaN(mcut) {
		o.missed("non-finite-mcut", "non-finite Mcut")
		return
	}
	o.ratio = math.Min(mcut/ref, ratioCeiling)
}

// checkBudget fails o when a budget-driven request ran past budget+slack.
func checkBudget(o *outcome, wall, budget time.Duration) {
	if wall > budget+budgetSlack {
		o.missed("overrun", "ran %v on a %v budget", wall.Round(time.Millisecond), budget)
	}
}

// partsHash fingerprints an assignment for repeat checks.
func partsHash(parts []int32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4*len(parts))
	for i, a := range parts {
		buf[4*i] = byte(a)
		buf[4*i+1] = byte(a >> 8)
		buf[4*i+2] = byte(a >> 16)
		buf[4*i+3] = byte(a >> 24)
	}
	h.Write(buf)
	return h.Sum64()
}
