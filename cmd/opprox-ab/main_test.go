package main

import (
	"math"
	"reflect"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
pkg: opprox/internal/core
BenchmarkOptimizeCold/comd-2         	    3634	    380820 ns/op	   20423 B/op	      57 allocs/op
BenchmarkTreePredict-16   	88088662	        11.99 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem	1000	5 ns/op
BenchmarkSize-100	1000	7 ns/op
--- FAIL: BenchmarkBroken-2
BenchmarkLogs-2   	--- BENCH: bench_test.go:1: note
PASS
ok  	opprox/internal/core	30.564s
`
	got, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkOptimizeCold/comd ns/op":     380820,
		"BenchmarkOptimizeCold/comd allocs/op": 57,
		"BenchmarkTreePredict ns/op":           11.99,
		"BenchmarkTreePredict allocs/op":       0,
		"BenchmarkNoMem ns/op":                 5,
		"BenchmarkSize ns/op":                  7, // a trailing -N always reads as the CPU suffix
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if _, err := parseBench("BenchmarkA-2 10 x ns/op\n"); err == nil {
		t.Error("a malformed value must be an error")
	}
}

func TestParseRunSkipsAbsent(t *testing.T) {
	s := &side{name: "base"}
	out := `setup_s 3.1 s
rps_per_core absent  no saturation windows
{"correct":true,"attempted":100,"failed":2,"metrics":{"setup_s":{"value":3.1,"unit":"s"},"rps_per_core":{"value":-1,"unit":"1/s"},"heap_mb":{"value":0,"unit":"MB"}}}
`
	vals, err := s.parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vals["rps_per_core"]; ok {
		t.Error("an absent metric (-1) must be skipped")
	}
	if v, ok := vals["heap_mb"]; !ok || v != 0 {
		t.Errorf("a real zero must be kept: %v %v", v, ok)
	}
	if vals["setup_s"] != 3.1 || len(vals) != 2 {
		t.Errorf("vals = %v", vals)
	}
	if s.correct != 1 || s.attempted != 100 || s.failed != 2 {
		t.Errorf("counts = %+v", s)
	}
	if _, err := s.parseRun("no json here\n"); err == nil {
		t.Error("a run without a JSON last line must be an error")
	}
}

// byPair keys values by pair index, leaving NaN entries out as a run
// that did not report the metric.
func byPair(xs []float64) map[int]float64 {
	m := map[int]float64{}
	for i, x := range xs {
		if !math.IsNaN(x) {
			m[i] = x
		}
	}
	return m
}

func TestQuartiles(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		xs       []float64
		med, iqr float64
	}{
		{[]float64{5}, 5, 0},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5},
		{[]float64{1, 2, 3, 4, 100}, 3, 2},
		{[]float64{nan, 2, nan, 1, 3}, 2, 1},
	} {
		med, iqr := quartiles(byPair(c.xs))
		if med != c.med || iqr != c.iqr {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, med, iqr, c.med, c.iqr)
		}
	}
	if med, _ := quartiles(byPair([]float64{nan})); !math.IsNaN(med) {
		t.Errorf("median of nothing = %v, want NaN", med)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		higher       bool
		bound        float64
		base, change []float64
		wins, n      int
		want         string
	}{
		{"faster lower-is-better", false, 0, base, scale(base, 0.8), 10, 10, "better"},
		{"slower lower-is-better", false, 0, base, scale(base, 1.25), 0, 10, "worse"},
		{"higher-is-better flips", true, 0, base, scale(base, 0.8), 0, 10, "worse"},
		{"identical: ties count for neither", false, 0, base, base, 0, 10, "same"},
		{"9 of 10 wins", false, 0, base,
			[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 101}, 9, 10, "better"},
		{"8 of 10 wins", false, 0, base,
			[]float64{80, 81, 79, 80, 82, 78, 80, 81, 100, 101}, 8, 10, "same"},
		{"9 ties and 1 win is not 9/10", false, 0, base,
			append(append([]float64{}, base[:9]...), 50), 1, 10, "same"},
		{"wins within the base IQR", false, 0, base, scale(base, 0.999), 10, 10, "same"},
		{"median past the bound", false, 0.25,
			[]float64{100, 100, 100, 100}, []float64{130, 130, 130, 90}, 1, 4, "worse"},
		{"noisy base wider than the bound", false, 0.25,
			[]float64{50, 100, 150, 200}, []float64{60, 100, 140, 220}, 1, 4, "unresolved"},
		{"inside the bound", false, 0.25,
			[]float64{100, 100, 100, 100}, []float64{110, 110, 90, 90}, 2, 4, "same"},
		{"a pair missing a side is skipped", false, 0, []float64{100, 100, math.NaN()}, []float64{50, 50, 50}, 2, 2, "better"},
		{"unpaired", false, 0, []float64{math.NaN()}, []float64{1}, 0, 0, "unpaired"},
	} {
		m := &series{higher: c.higher, bound: c.bound, vals: [2]map[int]float64{byPair(c.base), byPair(c.change)}}
		wins, n, v := m.verdict()
		if wins != c.wins || n != c.n || v != c.want {
			t.Errorf("%s: got %d/%d %s, want %d/%d %s", c.name, wins, n, v, c.wins, c.n, c.want)
		}
	}
}

func TestFailedMore(t *testing.T) {
	for _, c := range []struct {
		bf, ba, cf, ca int
		want           bool
	}{
		{0, 100, 0, 100, false},
		{0, 100, 1, 100, true},
		{1, 100, 1, 200, false},
		{1, 100, 3, 200, true},
		{0, 0, 0, 0, false},
	} {
		b := &side{failed: c.bf, attempted: c.ba}
		ch := &side{failed: c.cf, attempted: c.ca}
		if got := failedMore(b, ch); got != c.want {
			t.Errorf("failedMore(%d/%d, %d/%d) = %v, want %v", c.bf, c.ba, c.cf, c.ca, got, c.want)
		}
	}
}

func TestSeriesPairs(t *testing.T) {
	m := &series{vals: [2]map[int]float64{
		{0: 0.969, 1: 0.92234567, 2: 3},
		{0: 0.846, 2: 1e-7},
	}}
	if got, want := m.pairs(3), "0.969/0.846  0.92235/-  3/1e-07"; got != want {
		t.Fatalf("pairs = %q, want %q", got, want)
	}
}
