package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 from 200 samples rests on two points, so the picker walks the
// percentile down until ten samples sit beyond it.
const minBeyond = 10

// pctResult is one reported percentile with the evidence behind it.
type pctResult struct {
	Value float64 // the sample at the reported rank
	Pct   float64 // the percentile actually reported (≤ the one asked for)
	N     int     // sample count
}

// percentile returns the value at the highest percentile ≤ want that
// leaves at least minBeyond samples above it. It fails when there are
// too few samples for even that.
func percentile(samples []float64, want float64) (pctResult, error) {
	n := len(samples)
	if n <= minBeyond {
		return pctResult{}, fmt.Errorf("%d samples: need more than %d for any percentile", n, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	k := int(math.Ceil(want / 100 * float64(n)))
	k = max(1, min(k, n-minBeyond))
	return pctResult{Value: sorted[k-1], Pct: 100 * float64(k) / float64(n), N: n}, nil
}

// median is the middle of xs (mean of the two middles for even n);
// NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
