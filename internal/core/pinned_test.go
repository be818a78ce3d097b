package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opprox/internal/apps"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/train_bytes.sha256 from the current tree")

// pinnedOptions is a small training setting that still samples every
// one of four phases for every combo: the sampling grid is the same
// shape as the benchmark's, only thinner.
func pinnedOptions() Options {
	o := DefaultOptions()
	o.Phases = 4
	o.Seed = 1
	o.JointSamplesPerPhase = 2
	o.MaxParamCombos = 2
	o.Folds = 3
	return o
}

const pinnedFile = "train_bytes.sha256"

// TestTrainBytesPinned pins the persisted model bytes of the five
// benchmark applications: the sha256 of Save's output after training at
// pinnedOptions. A change to how an app is run (its loop, its RNG
// stream, its work accounting) or to how records become models moves
// these hashes; a change that only makes runs cheaper must not.
func TestTrainBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five real applications")
	}
	got := map[string]string{}
	var names []string
	for _, app := range realApps() {
		sum := sha256.Sum256(trainBytes(t, app, pinnedOptions()))
		got[app.Name()] = hex.EncodeToString(sum[:])
		names = append(names, app.Name())
	}
	path := filepath.Join("testdata", pinnedFile)
	if *updatePinned {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: Save bytes sha256 %s, pinned %s", name, got[name], want[name])
		}
	}
}

// BenchmarkSample prices the sampling half of Train on each real
// application at the end-to-end benchmark's options (oracleOptions): a
// fresh runner per iteration, so golden runs are included, on one worker
// so the figure is CPU work rather than pool scheduling.
func BenchmarkSample(b *testing.B) {
	for _, app := range realApps() {
		b.Run(app.Name(), func(b *testing.B) {
			o := oracleOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(o.Seed))
				combos := ParamCombos(app.Params(), o.MaxParamCombos, rng)
				s := &sampler{runner: apps.NewRunner(app), rng: rng, workers: 1}
				if _, err := s.collectAll(combos, o.Phases, o.JointSamplesPerPhase); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
