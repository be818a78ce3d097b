package apps_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/runs.sha256 from the current tree")

const runsFile = "runs.sha256"

// pinnedPhases is the phase count of the pinned schedules: the
// benchmark's training setting.
const pinnedPhases = 4

// TestRunsPinned pins every run an app can be asked for at its
// representative inputs: for each app, each combination of its
// representative parameter values and each schedule of pinnedSchedules,
// the sha256 of the Result — output bits, work, iteration count and
// control-flow signature. A kernel rewrite that only makes runs cheaper
// must leave these hashes alone.
func TestRunsPinned(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, a := range allApps() {
		h := sha256.New()
		for _, p := range paramGrid(a.Params()) {
			g, err := apps.Run(a, p, approx.AccurateSchedule(len(a.Blocks())), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range pinnedSchedules(a.Blocks()) {
				res, err := apps.Run(a, p, sched, g.OuterIters)
				if err != nil {
					t.Fatal(err)
				}
				hashResult(h, res)
			}
		}
		got[a.Name()] = hex.EncodeToString(h.Sum(nil))
		names = append(names, a.Name())
	}
	path := filepath.Join("testdata", runsFile)
	if *updatePinned {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
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
			t.Errorf("%s: runs sha256 %s, pinned %s", name, got[name], want[name])
		}
	}
}

// paramGrid is every combination of the representative parameter values,
// the first parameter varying slowest.
func paramGrid(specs []apps.ParamSpec) []apps.Params {
	grid := []apps.Params{{}}
	for _, s := range specs {
		var next []apps.Params
		for _, p := range grid {
			for _, v := range s.Values {
				q := p.Clone()
				q[s.Name] = v
				next = append(next, q)
			}
		}
		grid = next
	}
	return grid
}

// pinnedSchedules is the accurate schedule, each block alone at its
// maximum level in each single phase, every block at its maximum in every
// phase, and 8 seeded random schedules that set every phase.
func pinnedSchedules(blocks []approx.Block) []approx.Schedule {
	scheds := []approx.Schedule{approx.UniformSchedule(pinnedPhases, make(approx.Config, len(blocks)))}
	maxCfg := make(approx.Config, len(blocks))
	for bi, b := range blocks {
		maxCfg[bi] = b.MaxLevel
		for ph := 0; ph < pinnedPhases; ph++ {
			cfg := make(approx.Config, len(blocks))
			cfg[bi] = b.MaxLevel
			scheds = append(scheds, approx.SinglePhaseSchedule(pinnedPhases, ph, cfg))
		}
	}
	scheds = append(scheds, approx.UniformSchedule(pinnedPhases, maxCfg))
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		sched := approx.UniformSchedule(pinnedPhases, make(approx.Config, len(blocks)))
		for _, cfg := range sched.Levels {
			for bi, b := range blocks {
				cfg[bi] = rng.Intn(b.MaxLevel + 1)
			}
		}
		scheds = append(scheds, sched)
	}
	return scheds
}

// hashResult feeds every observable field of res into h.
func hashResult(h hash.Hash, res apps.Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.Output)))
	for _, v := range res.Output {
		put(math.Float64bits(v))
	}
	put(res.Work)
	put(uint64(res.OuterIters))
	put(uint64(len(res.CtxSig)))
	h.Write([]byte(res.CtxSig))
}
