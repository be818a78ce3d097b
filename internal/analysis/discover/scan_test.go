package discover_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"opprox/internal/analysis"
	"opprox/internal/analysis/discover"
)

var update = flag.Bool("update", false, "rewrite golden files from current scanner output")

// sharedLoader hands every test the same loader, so the standard library
// and the apps are type-checked once per test binary.
var sharedLoader = sync.OnceValues(func() (*analysis.Loader, error) {
	return analysis.NewLoader(".")
})

func loader(t *testing.T) *analysis.Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

func scan(t *testing.T, opts discover.Options, patterns ...string) *discover.Report {
	t.Helper()
	rep, err := discover.NewScanner(loader(t)).Scan(opts, patterns...)
	if err != nil {
		t.Fatalf("Scan(%v): %v", patterns, err)
	}
	return rep
}

func renderText(t *testing.T, rep *discover.Report) string {
	t.Helper()
	var b strings.Builder
	if err := rep.RenderText(&b); err != nil {
		t.Fatalf("RenderText: %v", err)
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	goldenPath := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run `go test -run %s -update ./internal/analysis/discover` to create): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestKernelsGolden pins the scanner's classification of the fixture:
// which loops qualify, their kinds, knobs, reductions and scores.
func TestKernelsGolden(t *testing.T) {
	rep := scan(t, discover.Options{}, "internal/analysis/discover/testdata/src/kernels")
	checkGolden(t, "kernels.golden", renderText(t, rep))

	// Structural spot checks independent of the golden bytes.
	byFunc := map[string]discover.Candidate{}
	for _, c := range rep.Candidates {
		byFunc[c.Func] = c
	}
	if c, ok := byFunc["Map"]; !ok || c.Kind != "combinator" {
		t.Errorf("Map should yield a combinator candidate, got %+v", byFunc["Map"])
	}
	if c, ok := byFunc["Smooth"]; !ok || c.FloatOps < 3 {
		t.Errorf("Smooth should count blend's ops interprocedurally, got %+v", byFunc["Smooth"])
	}
	if _, ok := byFunc["GlobalWriter"]; ok {
		t.Error("GlobalWriter writes package state and must not qualify")
	}
	if _, ok := byFunc["Scratch"]; ok {
		t.Error("Scratch only writes loop-local state and must not qualify")
	}
	if c, ok := byFunc["Channeled"]; !ok || c.Kind != "range" || c.Depth != 1 {
		t.Errorf("Channeled's inner loop (only) should qualify, got %+v", byFunc["Channeled"])
	}
}

// TestAppsGolden is the checked-in ranked report over internal/apps — the
// discovery pass run against the five hand-instrumented applications.
func TestAppsGolden(t *testing.T) {
	rep := scan(t, discover.Options{}, "./internal/apps/...")
	checkGolden(t, "apps.golden", renderText(t, rep))
}

// TestAppsAnchors asserts every hand-built approximable block in the five
// apps is discovered: for each block, some candidate's line span must
// contain the anchor line inside the block's implementing loop.
func TestAppsAnchors(t *testing.T) {
	anchors := []struct {
		app, block, file string
		line             int
	}{
		{"pso", "fitness", "internal/apps/pso/pso.go", 242},
		{"pso", "velocity", "internal/apps/pso/pso.go", 208},
		{"pso", "position", "internal/apps/pso/pso.go", 228},
		{"lulesh", "forces", "internal/apps/lulesh/lulesh.go", 235},
		{"lulesh", "positions", "internal/apps/lulesh/lulesh.go", 254},
		{"lulesh", "strain", "internal/apps/lulesh/lulesh.go", 293},
		{"lulesh", "timeconstraints", "internal/apps/lulesh/lulesh.go", 196},
		{"comd", "position", "internal/apps/comd/comd.go", 273},
		{"comd", "force", "internal/apps/comd/comd.go", 223},
		{"comd", "velocity", "internal/apps/comd/comd.go", 293},
		{"tracker", "features", "internal/apps/tracker/tracker.go", 202},
		{"tracker", "likelihood", "internal/apps/tracker/tracker.go", 221},
		{"tracker", "minparticles", "internal/apps/tracker/tracker.go", 265},
		{"tracker", "layers", "internal/apps/tracker/tracker.go", 274},
		{"vidpipe", "edge", "internal/apps/vidpipe/vidpipe.go", 164},
		{"vidpipe", "deflate", "internal/apps/vidpipe/vidpipe.go", 195},
		{"vidpipe", "encode", "internal/apps/vidpipe/vidpipe.go", 312},
	}
	rep := scan(t, discover.Options{}, "./internal/apps/...")
	for _, a := range anchors {
		found := false
		for _, c := range rep.Candidates {
			if c.File == a.file && c.StartLine <= a.line && a.line <= c.EndLine {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s/%s: no candidate spans %s:%d", a.app, a.block, a.file, a.line)
		}
	}
}

// TestScanDeterminism asserts the JSON report is byte-identical across
// repeated runs and across -parallel settings.
func TestScanDeterminism(t *testing.T) {
	render := func(parallel int) []byte {
		rep := scan(t, discover.Options{Parallel: parallel}, "./internal/apps/...")
		var b bytes.Buffer
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return b.Bytes()
	}
	serial := render(1)
	if again := render(1); !bytes.Equal(serial, again) {
		t.Error("two serial scans produced different JSON")
	}
	if par := render(4); !bytes.Equal(serial, par) {
		t.Error("parallel=4 scan JSON differs from serial")
	}
}

// TestHarnessGolden pins the generated skeleton and proves it type-checks
// against the real approx and launch packages.
func TestHarnessGolden(t *testing.T) {
	rep := scan(t, discover.Options{}, "./internal/apps/...")
	src, err := discover.GenerateHarness(rep, "appsharness")
	if err != nil {
		t.Fatalf("GenerateHarness: %v", err)
	}
	checkGolden(t, "apps_harness.golden", string(src))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "harness.go"), src, 0o644); err != nil {
		t.Fatalf("write harness: %v", err)
	}
	pkg, err := loader(t).LoadDir(dir, "opprox/internal/appsharnesscheck")
	if err != nil {
		t.Fatalf("generated harness does not type-check: %v", err)
	}
	if pkg == nil {
		t.Fatal("generated harness yielded no package")
	}
}

// TestMinOpsFilter asserts the -min-ops knob prunes thin candidates.
func TestMinOpsFilter(t *testing.T) {
	all := scan(t, discover.Options{}, "./internal/apps/...")
	dense := scan(t, discover.Options{MinOps: 10}, "./internal/apps/...")
	if len(dense.Candidates) == 0 || len(dense.Candidates) >= len(all.Candidates) {
		t.Fatalf("MinOps=10 kept %d of %d candidates; expected a strict non-empty subset",
			len(dense.Candidates), len(all.Candidates))
	}
	for _, c := range dense.Candidates {
		if c.FloatOps < 10 {
			t.Errorf("candidate %s has %d ops, below MinOps", c.Name, c.FloatOps)
		}
	}
}
