package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile. Below it the tail is a handful of points, so the value says
// more about those points than about the distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank, so a p99
// needs at least 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", 100*p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has only %d beyond it (need %d)",
			100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (mean of the two middles for even n),
// or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest element of xs, or 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
