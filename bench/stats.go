package main

import (
	"sort"
	"time"
)

func sorted[T int64 | float64 | time.Duration](v []T) []T {
	out := append([]T(nil), v...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// percentile reads the p-th percentile (0–100) off an ascending slice.
func percentile[T int64 | float64 | time.Duration](asc []T, p float64) T {
	if len(asc) == 0 {
		return 0
	}
	i := int(float64(len(asc)) * p / 100)
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median[T int64 | float64 | time.Duration](v []T) T { return percentile(sorted(v), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tailLadder holds the percentiles a tail may be reported at, each with the
// share of the samples that lies beyond it, as one in so many.
var tailLadder = []struct {
	p       float64
	oneInOf int
}{{50, 2}, {75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10_000}}

// tailPercentile picks the highest percentile of the ladder that still has at
// least ten of the n samples beyond it; 0 when not even the median has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, rung := range tailLadder {
		if n >= 10*rung.oneInOf {
			best = rung.p
		}
	}
	return best
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// default "exclusive" method), which is what the regression gate computes
// spreads with. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	m := len(asc)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
