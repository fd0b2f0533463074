package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail: fewer make the tail one or two
// outliers rather than a property of the distribution.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile q of xs, from p50 up, with at
// least tailBeyond samples strictly above its value, using the
// nearest-rank definition. ok is false when even p50 has fewer samples
// beyond it; then the tail is reported as the median (q = 50), which keeps
// a short run's tail from reading below its median or from being one
// outlier.
func tail(xs []float64) (q int, v float64, ok bool) {
	if len(xs) == 0 {
		return 50, 0, false
	}
	s := sorted(xs)
	n := len(s)
	for q = 99; q > 50; q-- {
		v = s[nearestRank(q, n)]
		if n-sort.Search(n, func(i int) bool { return s[i] > v }) >= tailBeyond {
			return q, v, true
		}
	}
	v = s[nearestRank(50, n)]
	return 50, v, n-sort.Search(n, func(i int) bool { return s[i] > v }) >= tailBeyond
}

// nearestRank is the index of the q-th percentile of n sorted samples.
func nearestRank(q, n int) int {
	i := int(math.Ceil(float64(q)/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts nanoseconds (wall or modeled) to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
