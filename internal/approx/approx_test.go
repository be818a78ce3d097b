package approx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var testBlocks = []Block{
	{Name: "a", Technique: Perforation, MaxLevel: 5},
	{Name: "b", Technique: Memoization, MaxLevel: 3},
}

func TestTechniqueString(t *testing.T) {
	for _, tc := range []struct {
		tech Technique
		want string
	}{
		{Perforation, "loop perforation"},
		{Truncation, "loop truncation"},
		{Memoization, "memoization"},
		{ParamTuning, "parameter tuning"},
		{Technique(99), "Technique(99)"},
	} {
		if got := tc.tech.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.tech), got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{1, 2}).Validate(testBlocks); err != nil {
		t.Fatal(err)
	}
	if err := (Config{1}).Validate(testBlocks); err == nil {
		t.Fatal("want length error")
	}
	if err := (Config{6, 0}).Validate(testBlocks); err == nil {
		t.Fatal("want range error (too high)")
	}
	if err := (Config{0, -1}).Validate(testBlocks); err == nil {
		t.Fatal("want range error (negative)")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	c := Config{1, 2}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestConfigIsAccurate(t *testing.T) {
	if !(Config{0, 0}).IsAccurate() {
		t.Fatal("zeros should be accurate")
	}
	if (Config{0, 1}).IsAccurate() {
		t.Fatal("nonzero should not be accurate")
	}
}

func TestNumConfigs(t *testing.T) {
	if got := NumConfigs(testBlocks); got != 24 {
		t.Fatalf("NumConfigs = %d, want 24", got)
	}
	if got := NumConfigs(nil); got != 1 {
		t.Fatalf("NumConfigs(nil) = %d, want 1", got)
	}
}

func TestEnumerateConfigs(t *testing.T) {
	var seen []string
	EnumerateConfigs(testBlocks, func(c Config) bool {
		seen = append(seen, c.String())
		return true
	})
	if len(seen) != 24 {
		t.Fatalf("enumerated %d configs, want 24", len(seen))
	}
	if seen[0] != "[0 0]" || seen[len(seen)-1] != "[5 3]" {
		t.Fatalf("order wrong: first %s last %s", seen[0], seen[len(seen)-1])
	}
	uniq := map[string]bool{}
	for _, s := range seen {
		if uniq[s] {
			t.Fatalf("duplicate config %s", s)
		}
		uniq[s] = true
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	n := 0
	EnumerateConfigs(testBlocks, func(Config) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("enumerated %d, want stop at 5", n)
	}
}

func TestUniformScheduleIndependentPhases(t *testing.T) {
	s := UniformSchedule(3, Config{1, 2})
	s.Levels[0][0] = 9
	if s.Levels[1][0] != 1 {
		t.Fatal("phases must not share backing config")
	}
}

func TestAccurateSchedule(t *testing.T) {
	s := AccurateSchedule(2)
	if !s.IsAccurate() || s.Phases != 1 {
		t.Fatalf("AccurateSchedule wrong: %v", s)
	}
}

func TestSinglePhaseSchedule(t *testing.T) {
	s := SinglePhaseSchedule(4, 2, Config{3, 1})
	for p := 0; p < 4; p++ {
		cfg := s.LevelsAt(p)
		if p == 2 {
			if cfg[0] != 3 || cfg[1] != 1 {
				t.Fatalf("phase 2 cfg = %v", cfg)
			}
		} else if !cfg.IsAccurate() {
			t.Fatalf("phase %d should be accurate, got %v", p, cfg)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	ok := UniformSchedule(2, Config{1, 1})
	if err := ok.Validate(testBlocks); err != nil {
		t.Fatal(err)
	}
	bad := Schedule{Phases: 0}
	if err := bad.Validate(testBlocks); err == nil {
		t.Fatal("want phase count error")
	}
	bad2 := Schedule{Phases: 2, Levels: []Config{{0, 0}}}
	if err := bad2.Validate(testBlocks); err == nil {
		t.Fatal("want levels length error")
	}
	bad3 := UniformSchedule(2, Config{9, 0})
	if err := bad3.Validate(testBlocks); err == nil {
		t.Fatal("want per-phase config error")
	}
}

func TestLevelsAtClamps(t *testing.T) {
	s := UniformSchedule(2, Config{1, 2})
	s.Levels[1] = Config{3, 3}
	if got := s.LevelsAt(-1); got[0] != 1 {
		t.Fatalf("LevelsAt(-1) = %v", got)
	}
	if got := s.LevelsAt(7); got[0] != 3 {
		t.Fatalf("LevelsAt(7) = %v, want clamped to last phase", got)
	}
	if s.Level(7, 1) != 3 {
		t.Fatal("Level should clamp too")
	}
}

func TestPhaseOf(t *testing.T) {
	// 10 iterations, 4 phases: size 2, remainder to last → sizes 2,2,2,4.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 3, 3}
	for i, w := range want {
		if got := PhaseOf(i, 10, 4); got != w {
			t.Fatalf("PhaseOf(%d,10,4) = %d, want %d", i, got, w)
		}
	}
	// Iterations beyond the baseline belong to the final phase.
	if PhaseOf(25, 10, 4) != 3 {
		t.Fatal("overflow iteration should map to last phase")
	}
	if PhaseOf(5, 10, 1) != 0 {
		t.Fatal("single phase is always 0")
	}
	if PhaseOf(0, 0, 4) != 0 {
		t.Fatal("degenerate baseline should not panic")
	}
	if PhaseOf(1, 2, 4) != 1 {
		t.Fatal("baseline < phases should clamp sizes at 1")
	}
}

// PhaseStart inverts PhaseOf at every phase boundary, including a zero
// baseline, a baseline below the phase count and one the phase count
// does not divide.
func TestPhaseStartInvertsPhaseOf(t *testing.T) {
	check := func(baseline, phases int) {
		if PhaseStart(0, baseline, phases) != 0 {
			t.Fatalf("PhaseStart(0, %d, %d) = %d, want 0", baseline, phases, PhaseStart(0, baseline, phases))
		}
		for ph := 1; ph < phases; ph++ {
			s := PhaseStart(ph, baseline, phases)
			if got := PhaseOf(s, baseline, phases); got != ph {
				t.Fatalf("baseline %d, %d phases: PhaseOf(PhaseStart(%d)=%d) = %d", baseline, phases, ph, s, got)
			}
			if got := PhaseOf(s-1, baseline, phases); got != ph-1 {
				t.Fatalf("baseline %d, %d phases: PhaseOf(PhaseStart(%d)-1=%d) = %d, want %d", baseline, phases, ph, s-1, got, ph-1)
			}
		}
	}
	for _, c := range [][2]int{{0, 4}, {0, 1}, {2, 4}, {3, 8}, {10, 4}, {10, 3}, {97, 8}, {120, 4}, {1, 2}} {
		check(c[0], c[1])
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		check(rng.Intn(3000), 1+rng.Intn(16))
	}
	if PhaseStart(7, 10, 4) != PhaseStart(3, 10, 4) {
		t.Fatal("phases past the last should clamp to the last")
	}
}

func TestPerforate(t *testing.T) {
	var idx []int
	n := Perforate(10, 0, func(i int) { idx = append(idx, i) })
	if n != 10 || len(idx) != 10 {
		t.Fatalf("level 0 ran %d, want 10", n)
	}
	idx = nil
	n = Perforate(10, 2, func(i int) { idx = append(idx, i) })
	if n != 4 {
		t.Fatalf("level 2 ran %d, want 4 (0,3,6,9)", n)
	}
	if idx[1] != 3 || idx[3] != 9 {
		t.Fatalf("indices = %v", idx)
	}
	if Perforate(0, 1, func(int) {}) != 0 {
		t.Fatal("empty loop should run 0")
	}
	if Perforate(5, -3, func(int) {}) != 5 {
		t.Fatal("negative level should clamp to accurate")
	}
}

func TestPerforatedCountMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		level := rng.Intn(8)
		ran := 0
		Perforate(n, level, func(int) { ran++ })
		return ran == PerforatedCount(n, level)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	ran := Truncate(100, 0, 5, func(int) {})
	if ran != 100 {
		t.Fatalf("level 0 ran %d, want 100", ran)
	}
	ran = Truncate(100, 5, 5, func(int) {})
	if ran != 50 {
		t.Fatalf("max level ran %d, want 50", ran)
	}
	ran = Truncate(100, 1, 5, func(int) {})
	if ran != 90 {
		t.Fatalf("level 1 ran %d, want 90", ran)
	}
	if Truncate(1, 5, 5, func(int) {}) != 1 {
		t.Fatal("must keep at least 1 iteration")
	}
	if Truncate(0, 2, 5, func(int) {}) != 0 {
		t.Fatal("empty loop")
	}
	if TruncatedCount(10, 9, 5) != TruncatedCount(10, 5, 5) {
		t.Fatal("level above max should clamp")
	}
}

func TestTruncateKeepsPrefix(t *testing.T) {
	var idx []int
	Truncate(10, 5, 5, func(i int) { idx = append(idx, i) })
	for k, v := range idx {
		if v != k {
			t.Fatalf("truncation must keep the prefix, got %v", idx)
		}
	}
}

func TestMemoize(t *testing.T) {
	var computes, reuses []int
	n := Memoize(7, 2, func(i int) { computes = append(computes, i) },
		func(i, from int) { reuses = append(reuses, from) })
	// period 3: compute at 0,3,6; reuse 1,2 (from 0), 4,5 (from 3).
	if n != 3 {
		t.Fatalf("computed %d, want 3", n)
	}
	if len(reuses) != 4 || reuses[0] != 0 || reuses[2] != 3 {
		t.Fatalf("reuses = %v", reuses)
	}
	// Level 0: all computed, nothing reused.
	computes, reuses = nil, nil
	Memoize(5, 0, func(i int) { computes = append(computes, i) },
		func(i, from int) { reuses = append(reuses, from) })
	if len(computes) != 5 || len(reuses) != 0 {
		t.Fatalf("level 0: computes=%v reuses=%v", computes, reuses)
	}
}

func TestMemoizedCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		level := rng.Intn(8)
		computed := Memoize(n, level, func(int) {}, func(int, int) {})
		return computed == MemoizedCount(n, level)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTunedValue(t *testing.T) {
	if got := TunedValue(100, 20, 0, 4); got != 100 {
		t.Fatalf("level 0 = %g, want accurate 100", got)
	}
	if got := TunedValue(100, 20, 4, 4); got != 20 {
		t.Fatalf("max level = %g, want aggressive 20", got)
	}
	if got := TunedValue(100, 20, 2, 4); got != 60 {
		t.Fatalf("midpoint = %g, want 60", got)
	}
	if got := TunedValue(100, 20, 9, 4); got != 20 {
		t.Fatalf("above max = %g, want clamp to 20", got)
	}
}

// Property: all loop executors do monotonically non-increasing work as the
// level rises.
func TestExecutorsMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		maxLevel := 1 + rng.Intn(7)
		prevP, prevT, prevM := 1<<30, 1<<30, 1<<30
		for l := 0; l <= maxLevel; l++ {
			p := PerforatedCount(n, l)
			tr := TruncatedCount(n, l, maxLevel)
			m := MemoizedCount(n, l)
			if p > prevP || tr > prevT || m > prevM {
				return false
			}
			prevP, prevT, prevM = p, tr, m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
