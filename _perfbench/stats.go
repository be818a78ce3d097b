package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile of sorted, 0 when empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortedCopy returns d sorted, leaving d alone.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianDur(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 0.5) }

// iqrDur is the distance between the first and third quartiles of d.
func iqrDur(d []time.Duration) time.Duration {
	s := sortedCopy(d)
	return percentile(s, 0.75) - percentile(s, 0.25)
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanMs is the mean of d in milliseconds, NaN (reported absent) when d
// is empty.
func meanMs(d []time.Duration) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return ms(sum) / float64(len(d))
}

// p99Ms is the nearest-rank p99 of d in milliseconds, NaN when empty.
func p99Ms(d []time.Duration) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return ms(percentile(sortedCopy(d), 0.99))
}
