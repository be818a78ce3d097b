// Command opprox trains OPPROX on one of the benchmark applications and
// prints the phase-aware approximation schedule it chooses for a QoS
// degradation budget, next to the phase-agnostic exhaustive baseline.
//
// Usage:
//
//	opprox -app lulesh -budget 10 [-phases 0] [-seed 1] [-oracle]
//
// -phases 0 runs the paper's Algorithm 1 to choose the granularity.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"opprox"
	"opprox/internal/core"
	"opprox/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opprox: ")

	appName := flag.String("app", "lulesh", "application: lulesh, comd, vidpipe, tracker, pso")
	budget := flag.Float64("budget", 10, "QoS degradation budget (percent; for vidpipe, 50-PSNR target)")
	phases := flag.Int("phases", 4, "phase count; 0 runs Algorithm 1's granularity search")
	seed := flag.Int64("seed", 1, "training seed")
	oracle := flag.Bool("oracle", false, "also run the phase-agnostic exhaustive oracle baseline")
	saveModels := flag.String("save", "", "write the trained models to this file (JSON)")
	explain := flag.Bool("explain", false, "print a report of the trained models")
	profile := flag.Bool("profile", false, "print the per-block sensitivity profile before training")
	validate := flag.Int("validate", 0, "measure N fresh probes against the trained models and report calibration")
	paramFlag := flag.String("params", "", "override input parameters, e.g. \"mesh=64,regions=4\"")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot (run counts, cache hits, fit durations) to this file on exit")
	expandFeatures := flag.Bool("expand-features", false, "widen model inputs with derived interaction terms (MIC-pruned)")
	flag.Parse()

	if *metrics != "" {
		defer func() {
			f, err := os.Create(*metrics)
			if err != nil {
				log.Fatal(err)
			}
			if err := obs.Default.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metrics)
		}()
	}

	var app opprox.App
	for _, a := range opprox.Benchmarks() {
		if a.Name() == *appName {
			app = a
		}
	}
	if app == nil {
		log.Fatalf("unknown app %q (want lulesh, comd, vidpipe, tracker, or pso)", *appName)
	}

	params := opprox.DefaultParams(app)
	if *paramFlag != "" {
		for _, kv := range strings.Split(*paramFlag, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				log.Fatalf("bad parameter assignment %q", kv)
			}
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				log.Fatalf("bad parameter value in %q: %v", kv, err)
			}
			params[strings.TrimSpace(parts[0])] = v
		}
	}

	opts := opprox.DefaultOptions()
	opts.Seed = *seed
	opts.Phases = *phases
	opts.ExpandFeatures = *expandFeatures

	sys := opprox.New(app)
	if *profile {
		fmt.Fprintf(os.Stderr, "sensitivity profiling %s...\n", app.Name())
		profiles, err := core.SensitivityProfile(sys.Runner, params, opts.UsableDegradation)
		if err != nil {
			log.Fatal(err)
		}
		for _, bp := range profiles {
			fmt.Printf("block %s (%s): usable up to level %d\n", bp.Block.Name, bp.Block.Technique, bp.MaxUsableLevel)
			for _, lr := range bp.Levels {
				fmt.Printf("  level %d: speedup %.3f, degradation %.2f, iterations %d\n",
					lr.Level, lr.Speedup, lr.Degradation, lr.Iters)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "training %s (this samples the application a few thousand times)...\n", app.Name())
	if err := sys.Train(opts); err != nil {
		log.Fatal(err)
	}
	if *saveModels != "" {
		f, err := os.Create(*saveModels)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Models.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "models written to %s (load them with opprox-launch)\n", *saveModels)
	}
	sR2, dR2 := sys.Models.ModelQuality()
	fmt.Printf("trained: %d phases, %d records, %.3gs; model R² speedup=%.3f degradation=%.3f\n",
		sys.Models.Phases, len(sys.Models.Records), sys.Models.TrainTime.Seconds(), sR2, dR2)
	if *explain {
		fmt.Println()
		fmt.Print(sys.Models.Explain())
	}

	if *validate > 0 {
		cal, err := core.ValidateModels(sys.Runner, sys.Models, params, *validate, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(cal)
	}

	sched, pred, err := sys.Optimize(params, *budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedule for budget %.3g on %s:\n", *budget, params.Key())
	blocks := app.Blocks()
	var names []string
	for _, b := range blocks {
		names = append(names, b.Name)
	}
	fmt.Printf("  blocks: [%s]\n", strings.Join(names, " "))
	for ph, cfg := range sched.Levels {
		fmt.Printf("  phase %d: %s\n", ph+1, cfg)
	}
	fmt.Printf("predicted: speedup %.3f, degradation %.2f\n",
		pred.Speedup, pred.Degradation)

	ev, err := sys.Evaluate(params, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured:  speedup %.3f (%.1f%% less work), degradation %.2f\n",
		ev.Speedup, core.WorkSaved(ev.Speedup), ev.Degradation)

	if *oracle {
		fmt.Fprintf(os.Stderr, "running phase-agnostic exhaustive oracle...\n")
		or, err := opprox.PhaseAgnosticOracle(sys.Runner, params, *budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("oracle:    speedup %.3f (%.1f%% less work), degradation %.2f, config %s (%d settings tried)\n",
			or.Speedup, core.WorkSaved(or.Speedup), or.Degradation, or.Config, or.Evaluated)
	}
}
