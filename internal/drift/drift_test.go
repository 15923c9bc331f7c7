package drift

import (
	"context"
	"math"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/dispatch"
)

// stubEval costs cfg[0] scaled by (1 + compute slowdown) — a transparent
// stand-in for the simulator whose response to load is exactly known.
type stubEval struct{ scale float64 }

func (s stubEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	return s.scale * float64(cfg[0]), nil
}

func (s stubEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	return s.scale, nil
}

// stepAt5 is a test profile: nominal before virtual time 5, doubled compute
// cost after.
type stepAt5 struct{}

func (stepAt5) Name() string { return "stepAt5" }
func (stepAt5) At(t float64) cluster.Load {
	if t < 5 {
		return cluster.Load{}
	}
	return cluster.Load{ComputeSlowdown: 1}
}

// stubAt measures stubEval under each condition on an in-process pool of
// the given width.
func stubAt(workers int) func(ld cluster.Load) (dispatch.Dispatcher, error) {
	return func(ld cluster.Load) (dispatch.Dispatcher, error) {
		ev := stubEval{scale: 1 + ld.ComputeSlowdown}
		return &dispatch.Local{Eval: ev, Runner: &dispatch.Runner{Workers: workers}}, nil
	}
}

func newTestEnv(t *testing.T, prof cluster.Profile, workers int) *Env {
	t.Helper()
	env, err := NewEnv(stubAt(workers), prof, cfgspace.Config{1})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvClockAdvancesByProbeCost(t *testing.T) {
	env := newTestEnv(t, stepAt5{}, 1)
	if env.unit != 1 {
		t.Fatalf("unit = %v, want 1", env.unit)
	}
	if env.Clock() != 0 {
		t.Fatalf("fresh clock = %v", env.Clock())
	}
	v, err := env.Probe(context.Background(), cfgspace.Config{2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || env.Clock() != 2 {
		t.Fatalf("probe = %v, clock = %v; want 2, 2", v, env.Clock())
	}
	// Cross the step: idle time passes, then the same configuration costs
	// double (and advances the clock by its doubled cost).
	env.Advance(4)
	v, err = env.Probe(context.Background(), cfgspace.Config{2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Fatalf("post-step probe = %v, want 4", v)
	}
	if env.Clock() != 10 {
		t.Fatalf("clock = %v, want 10", env.Clock())
	}
}

func TestEnvPeekDoesNotAdvanceClock(t *testing.T) {
	env := newTestEnv(t, stepAt5{}, 1)
	before := env.Clock()
	for i := 0; i < 3; i++ {
		if _, err := env.Peek(context.Background(), cfgspace.Config{7}); err != nil {
			t.Fatal(err)
		}
	}
	if env.Clock() != before {
		t.Fatalf("Peek moved the clock: %v -> %v", before, env.Clock())
	}
	best, idx, err := env.PeekBest(context.Background(), []cfgspace.Config{{3}, {2}, {9}})
	if err != nil {
		t.Fatal(err)
	}
	if best != 2 || idx != 1 {
		t.Fatalf("PeekBest = %v (idx %d), want 2 (idx 1)", best, idx)
	}
	if env.Clock() != before {
		t.Fatalf("PeekBest moved the clock: %v -> %v", before, env.Clock())
	}
}

// TestEnvRetainsOneCondition is the memory bound of a long session: under a
// profile that never repeats a condition, every probe's oracle scan measures
// the whole tracked set afresh, and the environment must hold that for the
// current condition only — not one memo per condition it ever passed through.
func TestEnvRetainsOneCondition(t *testing.T) {
	prof, err := cluster.ParseProfile("periodic", 1)
	if err != nil {
		t.Fatal(err)
	}
	conditions := 0
	env, err := NewEnv(func(ld cluster.Load) (dispatch.Dispatcher, error) {
		conditions++
		return stubAt(1)(ld)
	}, prof, cfgspace.Config{1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]cfgspace.Config, 500)
	for i := range oracle {
		oracle[i] = cfgspace.Config{i + 1}
	}
	for probe := 0; probe < 200; probe++ {
		env.Advance(4)
		if _, err := env.Probe(context.Background(), oracle[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := env.PeekBest(context.Background(), oracle); err != nil {
			t.Fatal(err)
		}
	}
	if conditions < 100 {
		t.Fatalf("the profile passed through only %d conditions; the test needs a moving platform", conditions)
	}
	// A peek collector never forgets, so its misses are what it holds.
	if held := env.peek.Stats().Misses; held > uint64(len(oracle)) {
		t.Fatalf("after %d conditions the environment holds %d measurements, more than one condition's %d",
			conditions, held, len(oracle))
	}
}

// TestPeekBestReturnsFirstMinimum: ties go to the earliest index, whatever
// order the runner finished the scan in.
func TestPeekBestReturnsFirstMinimum(t *testing.T) {
	env := newTestEnv(t, stepAt5{}, 4)
	best, idx, err := env.PeekBest(context.Background(), []cfgspace.Config{{3}, {2}, {9}, {2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if best != 2 || idx != 1 {
		t.Fatalf("PeekBest = %v (idx %d), want 2 at the first index holding it (1)", best, idx)
	}
}

func TestEnvDispatchAdvancesByBatchMax(t *testing.T) {
	// A batch is one wave on the measurement plane: the clock must advance
	// by the slowest item, not the sum — at any worker count.
	for _, workers := range []int{1, 4} {
		env := newTestEnv(t, stepAt5{}, workers)
		batch := []dispatch.Item{
			{Seq: 0, Kind: dispatch.KindWorkflow, Cfg: cfgspace.Config{3}},
			{Seq: 1, Kind: dispatch.KindWorkflow, Cfg: cfgspace.Config{2}},
		}
		ms, err := env.Dispatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 {
			t.Fatalf("got %d measurements", len(ms))
		}
		if env.Clock() != 3 {
			t.Fatalf("workers=%d: clock = %v after batch, want max cost 3", workers, env.Clock())
		}
	}
}

func TestEnvAdvanceCapped(t *testing.T) {
	env := newTestEnv(t, stepAt5{}, 1)
	if _, err := env.Probe(context.Background(), cfgspace.Config{1000}); err != nil {
		t.Fatal(err)
	}
	if env.Clock() != maxAdvancePerItem {
		t.Fatalf("pathological probe advanced clock to %v, want cap %v", env.Clock(), maxAdvancePerItem)
	}
}

func TestEnvDeterministicPerSeedProfile(t *testing.T) {
	// Two environments over the same (seed, profile) must produce the same
	// value and clock sequence.
	for _, name := range cluster.ProfileNames() {
		run := func() (vals []float64, clocks []float64) {
			prof, err := cluster.ParseProfile(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			env := newTestEnv(t, prof, 1)
			for i := 0; i < 8; i++ {
				env.Advance(30)
				v, err := env.Probe(context.Background(), cfgspace.Config{2})
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, v)
				clocks = append(clocks, env.Clock())
			}
			return vals, clocks
		}
		v1, c1 := run()
		v2, c2 := run()
		for i := range v1 {
			if v1[i] != v2[i] || c1[i] != c2[i] {
				t.Fatalf("profile %s: replay diverged at probe %d: (%v,%v) vs (%v,%v)",
					name, i, v1[i], c1[i], v2[i], c2[i])
			}
		}
	}
}

func TestProfileJitterVariesWithSeed(t *testing.T) {
	// The step profile's onset is jittered from the seed; two seeds should
	// not produce identical onsets (deterministic jitter, not a constant).
	loadAt := func(seed uint64, t0 float64) cluster.Load {
		prof, err := cluster.ParseProfile("step", seed)
		if err != nil {
			t.Fatal(err)
		}
		return prof.At(t0)
	}
	same := true
	for _, t0 := range []float64{100, 110, 120, 130, 140} {
		if loadAt(1, t0) != loadAt(2, t0) {
			same = false
		}
	}
	if same {
		t.Fatal("step profiles for seeds 1 and 2 are indistinguishable; jitter not applied")
	}
}

func TestUnderLoadZeroIsBitwiseIdentity(t *testing.T) {
	m := cluster.Default()
	if got := m.UnderLoad(cluster.Load{}); got != m {
		t.Fatalf("UnderLoad(zero) changed the machine: %+v vs %+v", got, m)
	}
}

func TestDetectorRelativeMode(t *testing.T) {
	d := NewDetector(0.2, 2)
	d.Reset(10)
	if v, _ := d.Observe(10.5); v != None {
		t.Fatalf("in-band probe: %v, want none", v)
	}
	if v, _ := d.Observe(13); v != Suspected {
		t.Fatalf("first out-of-band probe: %v, want suspected", v)
	}
	// An in-band probe resets the streak.
	if v, _ := d.Observe(10.2); v != None {
		t.Fatalf("recovered probe: %v, want none", v)
	}
	if v, _ := d.Observe(13); v != Suspected {
		t.Fatalf("streak must restart after recovery")
	}
	v, res := d.Observe(14)
	if v != Confirmed {
		t.Fatalf("second consecutive out-of-band probe: %v, want confirmed", v)
	}
	if math.Abs(res-0.4) > 1e-12 {
		t.Fatalf("residual = %v, want 0.4", res)
	}
	// Improvements (negative residuals) confirm too: the platform changed.
	d.Reset(10)
	d.Observe(7)
	if v, res := d.Observe(7); v != Confirmed || res >= 0 {
		t.Fatalf("improvement drift: %v (residual %v), want confirmed negative", v, res)
	}
}
