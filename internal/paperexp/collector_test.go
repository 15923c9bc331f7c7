package paperexp

import (
	"context"
	"errors"
	"testing"
	"time"

	"ceal/internal/tuner"
)

// TestBatteryCollectorCacheHits runs two algorithms over the same ground
// truth on one Problem (as RunBattery does per replication) and checks that
// the shared collector serves repeated configurations from cache.
func TestBatteryCollectorCacheHits(t *testing.T) {
	gt := tinyGT(t, "LV")
	p := gt.Problem(Options{}, CompTime, false, 3)
	for _, alg := range []tuner.Algorithm{tuner.RS{}, tuner.NewAL()} {
		if _, err := alg.Tune(p, 20); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
	st := p.Collector().Stats()
	if st.Misses == 0 {
		t.Fatalf("no measurements flowed through the collector: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("two algorithms over one ground truth produced no cache hits: %+v", st)
	}
	t.Logf("collector after 2 algorithms: %s", st)
}

// TestTuneCancellation checks that cancelling Problem.Ctx aborts a tuning
// run promptly with the context's error.
func TestTuneCancellation(t *testing.T) {
	gt := tinyGT(t, "LV")
	p := gt.Problem(Options{}, CompTime, false, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	start := time.Now()
	_, err := tuner.NewCEAL().Tune(p, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation was not prompt: %v", elapsed)
	}
}

// TestBatteryCancellation checks Options.Ctx threads into replications.
func TestBatteryCancellation(t *testing.T) {
	gt := tinyGT(t, "LV")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBattery(Options{Reps: 2, Seed: 1, Ctx: ctx}, RunSpec{
		GT: gt, Obj: CompTime, Budget: 20,
		Algorithms: []tuner.Algorithm{tuner.RS{}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildGroundTruthCancellation checks Options.Ctx aborts a build.
func TestBuildGroundTruthCancellation(t *testing.T) {
	gt := tinyGT(t, "LV")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Pool: 40, ComponentSamples: 20, Seed: 9, Workers: 4, Ctx: ctx}
	if _, err := BuildGroundTruth(gt.Bench, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
