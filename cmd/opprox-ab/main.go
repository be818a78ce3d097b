// Command opprox-ab measures a change against a base revision in paired
// runs that alternate which side goes first:
//
//	go run ./cmd/opprox-ab -base HEAD~1 -bench 'OptimizeCold$' ./internal/core
//	go run ./cmd/opprox-ab -base 56bc47d^ -head 56bc47d -workload cold-unique -seed 1
//
// Revisions are exported with git archive to a temporary directory; without
// -head the change is the working tree. -bench builds each package's test
// binary once per side (-trimpath: equal sources, equal binaries) and
// compares ns/op and allocs/op; -workload runs _perfbench/run.sh untraced
// from each side's root and compares the end-to-end metrics BENCHMARK.json
// names. Per metric it prints each side's median and IQR, the change's wins
// of N pairs (ties count for neither) and a verdict (see series.verdict),
// then every pair's base and change values.
// It exits 1 on a worse verdict or a larger failed share, 2 on an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// side is one of the two trees under comparison.
type side struct {
	name, root                 string
	failed, attempted, correct int // -workload: summed over runs
}

// series is one metric's values per side, keyed by pair index; a run
// that did not report the metric has no entry.
type series struct {
	higher bool
	bound  float64 // relative bound from BENCHMARK.json; 0 for go test metrics
	vals   [2]map[int]float64
}

func main() {
	base := flag.String("base", "HEAD~1", "git revision of the base side")
	head := flag.String("head", "", "git revision of the change side (default: the working tree)")
	pairs := flag.Int("pairs", 10, "number of base/change pairs")
	seed := flag.Int("seed", 1, "input seed passed to _perfbench")
	workload := flag.String("workload", "", "_perfbench workload to compare")
	bench := flag.String("bench", "", "go test -bench regexp, run in the package directories given as arguments")
	flag.Parse()
	if (*workload == "") == (*bench == "") || (*bench == "") != (flag.NArg() == 0) || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: opprox-ab [-base REV] [-head REV] [-pairs N] (-workload W [-seed S] | -bench RE PKGDIR...)")
		os.Exit(2)
	}
	code, err := compare(*base, *head, *pairs, *seed, *workload, *bench, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "opprox-ab:", err)
		code = 2
	}
	os.Exit(code)
}

func compare(baseRev, headRev string, pairs, seed int, workload, bench string, pkgs []string) (int, error) {
	top, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "opprox-ab-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	sides := [2]*side{{name: "base"}, {name: "change", root: top}}
	for k, rev := range []string{baseRev, headRev} {
		if rev == "" {
			continue
		}
		sides[k].root = filepath.Join(tmp, sides[k].name)
		if _, err := output(top, "bash", "-c", `set -o pipefail; mkdir "$2" && git archive "$1" | tar -x -C "$2"`,
			"bash", rev, sides[k].root); err != nil {
			return 0, err
		}
	}
	size, err := output("", "sh", filepath.Join(top, "scripts", "size.sh"), sides[0].root, sides[1].root)
	if err != nil {
		return 0, err
	}
	fmt.Println(size)

	metrics := map[string]*series{}
	var names []string
	add := func(name string, m *series) {
		m.vals = [2]map[int]float64{{}, {}}
		metrics[name] = m
		names = append(names, name)
	}
	var jobs [2][][]string // per side and unit: directory, command, arguments
	if bench != "" {
		for k, s := range sides {
			for j, pkg := range pkgs {
				bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", s.name, j))
				if _, err := output(s.root, "go", "test", "-c", "-trimpath", "-o", bin, pkg); err != nil {
					return 0, err
				}
				jobs[k] = append(jobs[k], []string{filepath.Join(s.root, pkg), bin,
					"-test.run=^$", "-test.bench=" + bench, "-test.benchmem", "-test.timeout=30m"})
			}
		}
	} else {
		var spec struct {
			RunSeconds int `json:"run_seconds"`
			EndToEnd   []struct {
				Name, Better string
				Bound        float64
			} `json:"end_to_end"`
		}
		buf, err := os.ReadFile(filepath.Join(sides[1].root, "BENCHMARK.json"))
		if err == nil {
			err = json.Unmarshal(buf, &spec)
		}
		if err != nil {
			return 0, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			add(m.Name, &series{higher: m.Better == "higher", bound: m.Bound})
		}
		for k, s := range sides {
			jobs[k] = [][]string{{s.root, "bash", "_perfbench/run.sh", "--workload", workload,
				"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0"}}
		}
	}

	for i := 0; i < pairs; i++ {
		for j := range jobs[0] {
			for _, k := range [][]int{{0, 1}, {1, 0}}[i%2] {
				job := jobs[k][j]
				fmt.Fprintf(os.Stderr, "opprox-ab: pair %d/%d %s: %s\n", i+1, pairs, sides[k].name, strings.Join(job[1:], " "))
				out, err := output(job[0], job[1], job[2:]...)
				var got map[string]float64
				if err == nil && bench != "" {
					got, err = parseBench(out)
				} else if err == nil {
					got, err = sides[k].parseRun(out)
				}
				if err != nil {
					return 0, err
				}
				for name, v := range got {
					if metrics[name] == nil && bench != "" {
						add(name, &series{})
					}
					if m := metrics[name]; m != nil {
						m.vals[k][i] = v
					}
				}
			}
		}
	}

	if bench != "" {
		sort.Strings(names)
	}
	var worse []string
	fmt.Printf("%-44s %12s %10s %12s %10s %6s  %s\n", "metric", "base", "IQR", "change", "IQR", "wins", "verdict")
	for _, name := range names {
		m := metrics[name]
		wins, n, v := m.verdict()
		mb, ib := quartiles(m.vals[0])
		mc, ic := quartiles(m.vals[1])
		fmt.Printf("%-44s %12.5g %10.3g %12.5g %10.3g %3d/%-2d  %s\n", name, mb, ib, mc, ic, wins, n, v)
		if v == "worse" {
			worse = append(worse, name)
		}
	}
	fmt.Println("per pair, base/change:")
	for _, name := range names {
		fmt.Printf("%-44s %s\n", name, metrics[name].pairs(pairs))
	}
	if bench == "" {
		for _, s := range sides {
			fmt.Printf("%s: failed %d/%d, correct in %d/%d runs\n", s.name, s.failed, s.attempted, s.correct, pairs)
		}
		if failedMore(sides[0], sides[1]) {
			worse = append(worse, "failed share")
		}
	}
	if len(worse) > 0 {
		fmt.Fprintln(os.Stderr, "opprox-ab: worse:", strings.Join(worse, ", "))
		return 1, nil
	}
	return 0, nil
}

func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

// parseBench reads ns/op and allocs/op from `go test -bench -benchmem`
// output, named "BenchmarkName unit" with the -GOMAXPROCS suffix removed.
func parseBench(out string) (map[string]float64, error) {
	got := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 && strings.Trim(name[i+1:], "0123456789") == "" {
			name = name[:i]
		}
		for j := 2; j+1 < len(f); j += 2 {
			if f[j+1] == "ns/op" || f[j+1] == "allocs/op" {
				v, err := strconv.ParseFloat(f[j], 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %q: %w", line, err)
				}
				got[name+" "+f[j+1]] = v
			}
		}
	}
	return got, nil
}

// parseRun reads the JSON object on the last line of a _perfbench run and
// adds its counts to s. A metric the run did not observe is carried as -1
// and left out, never read as zero.
func (s *side) parseRun(out string) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line of _perfbench output: %w", err)
	}
	s.attempted += res.Attempted
	s.failed += res.Failed
	if res.Correct {
		s.correct++
	}
	got := map[string]float64{}
	for name, m := range res.Metrics {
		if m.Value != -1 {
			got[name] = m.Value
		}
	}
	return got, nil
}

// failedMore reports whether the change failed a larger share than the base.
func failedMore(base, change *side) bool {
	return change.failed*base.attempted > base.failed*change.attempted
}

// verdict counts the change's wins over the pairs both sides reported.
// It is better or worse when one side wins 9/10 of the pairs and the
// medians differ by more than the base's IQR; otherwise, against a
// BENCHMARK.json bound, worse when the change's median is past it and
// unresolved when the base's IQR is wider than it; otherwise same.
func (m *series) verdict() (wins, n int, v string) {
	gain := func(b, c float64) float64 {
		if m.higher {
			return c - b
		}
		return b - c
	}
	losses := 0
	for i, b := range m.vals[0] {
		if c, ok := m.vals[1][i]; ok {
			n++
			if g := gain(b, c); g > 0 {
				wins++
			} else if g < 0 {
				losses++
			}
		}
	}
	mb, iqr := quartiles(m.vals[0])
	mc, _ := quartiles(m.vals[1])
	g := gain(mb, mc)
	switch {
	case n == 0:
		return 0, 0, "unpaired"
	case 10*wins >= 9*n && g > iqr:
		return wins, n, "better"
	case 10*losses >= 9*n && -g > iqr, m.bound > 0 && -g > m.bound*math.Abs(mb):
		return wins, n, "worse"
	case m.bound > 0 && iqr > m.bound*math.Abs(mb):
		return wins, n, "unresolved"
	}
	return wins, n, "same"
}

// pairs renders each pair's base and change values in pair order, "-"
// for a side whose run did not report the metric, so a wide IQR can be
// traced to the runs that made it.
func (m *series) pairs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString("  ")
		}
		for k, vals := range m.vals {
			if k > 0 {
				b.WriteByte('/')
			}
			if v, ok := vals[i]; ok {
				b.WriteString(strconv.FormatFloat(v, 'g', 5, 64))
			} else {
				b.WriteByte('-')
			}
		}
	}
	return b.String()
}

// quartiles returns the median and interquartile range of the values,
// interpolating linearly between order statistics (NaN when empty).
func quartiles(xs map[int]float64) (med, iqr float64) {
	var s []float64
	for _, x := range xs {
		s = append(s, x)
	}
	sort.Float64s(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := p * float64(len(s)-1)
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[min(i+1, len(s)-1)]-s[i])
	}
	return q(0.5), q(0.75) - q(0.25)
}
