package live

import (
	"encoding/json"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// allAlgorithms are the five registered tuning algorithms.
var allAlgorithms = []string{"rs", "al", "geist", "alph", "ceal"}

// continuousSmall builds a small continuous run for tests.
func continuousSmall(t *testing.T, wf, profile string, seed uint64, workers, probes int) *tuner.Continuous {
	t.Helper()
	c, err := NewContinuous(dispatch.Job{Benchmark: wf, Objective: "comp", Seed: seed}, 80, profile, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Algorithm = tuner.NewCEAL()
	c.Opts.Probes = probes
	return c
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConstantProfileMatchesPlainRunByteForByte is the no-drift acceptance
// criterion: with the constant profile the detector never fires, no
// re-exploration happens, and both the initial tuning result and the final
// incumbent are byte-identical to a plain (non-continuous) run of the same
// algorithm over the same problem.
func TestConstantProfileMatchesPlainRunByteForByte(t *testing.T) {
	for _, name := range allAlgorithms {
		b, err := workflow.ByName(cluster.Default(), "LV")
		if err != nil {
			t.Fatal(err)
		}
		alg, err := AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := alg.Tune(NewProblem(b, workflow.CompTime, 80, 7), 14)
		if err != nil {
			t.Fatalf("%s: plain run: %v", name, err)
		}

		c, err := NewContinuous(dispatch.Job{Benchmark: "LV", Objective: "comp", Seed: 7}, 80, "none", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Algorithm, err = AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c.Opts.Probes = 6
		res, err := c.Run(14)
		if err != nil {
			t.Fatalf("%s: continuous run: %v", name, err)
		}

		if res.Retunes != 0 || res.Switchbacks != 0 || len(res.Epochs) != 0 {
			t.Fatalf("%s: constant profile re-explored: %d retunes, %d switchbacks", name, res.Retunes, res.Switchbacks)
		}
		if res.Final != res.Initial {
			t.Fatalf("%s: Final is not the initial result", name)
		}
		got, want := mustJSON(t, res.Initial), mustJSON(t, plain)
		if string(got) != string(want) {
			t.Fatalf("%s: continuous initial result differs from plain run:\n%s\nvs\n%s", name, got, want)
		}
		if res.Incumbent.Key() != plain.Best.Key() {
			t.Fatalf("%s: incumbent %v differs from plain best %v", name, res.Incumbent, plain.Best)
		}
		if res.CumulativeRegret != 0 {
			// Probing the incumbent under zero drift reproduces its tuned
			// value exactly; the oracle over the pool can still be better if
			// tuning missed the pool optimum, so only assert finiteness here
			// — but a *negative* regret is always a bug.
			if res.CumulativeRegret < 0 {
				t.Fatalf("%s: negative cumulative regret %v", name, res.CumulativeRegret)
			}
		}
	}
}

// TestContinuousDeterministicAcrossWorkerCounts is the drift determinism
// property: the whole continuous outcome — every probe, retune decision,
// and regret integral — is a deterministic function of (seed, profile),
// independent of measurement parallelism.
func TestContinuousDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, profile := range []string{"step", "periodic"} {
		run := func(workers int) []byte {
			c := continuousSmall(t, "LV", profile, 11, workers, 12)
			res, err := c.Run(14)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", profile, workers, err)
			}
			return mustJSON(t, res)
		}
		serial := run(1)
		for _, workers := range []int{2, 4} {
			if got := string(run(workers)); got != string(serial) {
				t.Fatalf("profile %s: workers=%d result differs from serial:\n%s\nvs\n%s",
					profile, workers, got, serial)
			}
		}
	}
}

// TestContinuousReplayIsBitwiseIdentical re-runs the same (seed, profile)
// twice and demands identical bytes — the reproducibility contract the
// drift experiment relies on.
func TestContinuousReplayIsBitwiseIdentical(t *testing.T) {
	run := func() []byte {
		c := continuousSmall(t, "HS", "ramp", 3, 1, 10)
		res, err := c.Run(14)
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, res)
	}
	if a, b := string(run()), string(run()); a != b {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
	}
}
