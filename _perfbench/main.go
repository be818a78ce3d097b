// Command perfbench is the end-to-end OPPROX benchmark. It trains the
// models, starts in-process loopback serve replicas and drives them over
// real HTTP with a seeded open-loop generator; README.md describes the
// workloads, the metrics and the layer each metric belongs to.
//
// Usage (run.sh builds it inside the checkout first):
//
//	bash _perfbench/run.sh --workload hot-fleet --seed 1 --seconds 20 --trace 0
//	bash _perfbench/run.sh --selftest
//
// Human-readable lines come first; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for model stores and feedback logs")
	tracedir := flag.String("tracedir", filepath.Join(".bench_build", "traces"), "directory traced runs write their spans to")
	selftest := flag.Bool("selftest", false, "run the hop-delay sensitivity self-test instead of a workload")
	flag.Parse()

	w, known := workloads[*workload]
	if !*selftest && (!known || *seconds < 1 || (*trace != 0 && *trace != 1)) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *selftest {
		ok, err := selfTest(dir, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, dir, *tracedir, *seed, *seconds)
	} else {
		res, err = runUntraced(w, dir, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// notObserved is the value of a metric whose source this run did not see:
// an obs metric family absent from the snapshot (renamed, or never
// created), or a layer the workload does not exercise. Such a metric is
// printed as absent and never reported as zero.
const notObserved = -1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric for the JSON line and prints it with its
// provenance; NaN means not observed.
func (r *result) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = notObserved
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	show(name, v, unit, note)
}

// show prints one human-readable metric line.
func show(name string, v float64, unit, note string) {
	if v == notObserved || math.IsNaN(v) {
		fmt.Printf("%-34s absent  %s\n", name, note)
		return
	}
	fmt.Printf("%-34s %.6g %s  %s\n", name, v, unit, note)
}
