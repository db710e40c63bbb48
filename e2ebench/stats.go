package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

// nanotime is monotonic nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points the way Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so that the repeat mode's spreads match the ones
// BENCHMARK.json's bounds are set against.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tail reports a latency sample: its median and p99, with a note that
// states the sample count and whether p99 has the ten samples beyond it
// that make it a supported percentile.
func tail(o *outcome, label string, ms []float64) (p50, p99 float64) {
	p50 = median(ms)
	p99 = percentile(ms, 99)
	support := "p99 supported"
	if len(ms) < 1000 {
		support = "p99 has fewer than 10 samples beyond it"
	}
	o.note("%s: n=%d p50=%.4fms p99=%.4fms (%s)", label, len(ms), p50, p99, support)
	return p50, p99
}
