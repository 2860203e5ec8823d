package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks (vs is not modified).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is quantile for a tail percentile: it returns 0 unless at
// least ten samples lie beyond q, the fewest a tail estimate rests on.
func tailQuantile(vs []float64, q float64) float64 {
	if float64(len(vs))*(1-q) < 10 {
		return 0
	}
	return quantile(vs, q)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (no work of that kind in the window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
