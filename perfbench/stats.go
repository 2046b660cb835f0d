package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of xs (the "type 7"
// estimator numpy and R use by default). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples above it, together with that percentile. With too few samples for
// such a percentile to lie above the median it falls back to the maximum
// and reports 100.
func tail(xs []float64) (value, percentile float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= 2*tailBeyond {
		return s[n-1], 100
	}
	rank := n - tailBeyond // 1-based rank of the reported sample
	return s[rank-1], 100 * float64(rank) / float64(n)
}
