package tuner

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/ml/xgb"
	"ceal/internal/workflow"
)

// paperSamples measures the first n configurations of a paper-shaped LV
// problem (pool 2000, computation time).
// poolState is a run state whose samples are measurements of the pool
// rows that hold their configurations.
func poolState(p *Problem, samples []Sample) *State {
	at := make(map[string]int, len(p.Pool))
	for i, cfg := range p.Pool {
		if _, ok := at[cfg.Key()]; !ok {
			at[cfg.Key()] = i
		}
	}
	idxs := make([]int, len(samples))
	for k, smp := range samples {
		idxs[k] = at[smp.Cfg.Key()]
	}
	return &State{Problem: p, Samples: samples, Indices: idxs}
}

func paperSamples(t testing.TB, n int) (*Problem, []Sample) {
	t.Helper()
	p := benchProblem(workflow.LV(cluster.Default()), workflow.CompTime, 2000)
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	samples, err := measureBatch(p, p.Pool[:n])
	if err != nil {
		t.Fatal(err)
	}
	return p, samples
}

// TestSurrogateRefitMatchesReference: a surrogate refitted again and again
// on one trainer, each fit reusing the grower and the arrays of the model
// it replaced, holds after every refit the model a fresh trainer makes of
// the same samples' pool rows: pool predictions, bounded pool scores,
// importance bitwise equal, and the same cuts. The sample sets grow batch by batch
// as a run's do, then one is no prefix extension (fewer rows, other
// order), and one fails: a failed refit leaves every prediction bitwise
// as it was, and the refit after it is exact again.
func TestSurrogateRefitMatchesReference(t *testing.T) {
	p, samples := paperSamples(t, 50)
	s := newSurrogate(p)
	q, err := p.poolCodes(p.Pool)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Pool)
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = n - 1 - i
	}
	// The scorer is taken once: it must read whichever model is current.
	var scorer poolScorer

	shuffled := slices.Clone(samples[3:41])
	slices.Reverse(shuffled)
	bad := slices.Clone(samples[:45])
	bad[17].Value = math.NaN()
	steps := [][]Sample{samples[:5], samples[:10], samples[:15], samples[:25], samples[:30], samples[:40], samples[:50], shuffled, bad, samples[:45]}

	var prev []float64
	for k, set := range steps {
		label := fmt.Sprintf("refit %d (%d samples)", k, len(set))
		err := s.Train(poolState(p, set))
		if k == len(steps)-2 {
			if !errors.Is(err, xgb.ErrBadTrainingData) {
				t.Fatalf("%s: err = %v, want ErrBadTrainingData", label, err)
			}
			got, err := s.PredictPoolInto(make([]float64, n))
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(prev[i]) {
					t.Fatalf("%s: pool[%d] predicts %v after a failed refit, %v before", label, i, got[i], prev[i])
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if scorer == nil {
			if scorer, err = s.poolScorer(); err != nil {
				t.Fatal(err)
			}
		}

		rows, y := make([]int32, len(set)), make([]float64, len(set))
		for i, idx := range poolState(p, set).Indices {
			rows[i], y[i] = int32(idx), logTarget(set[i].Value)
		}
		ref, err := xgb.NewTrainer(nil).Fit(q, rows, y, xgb.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		ref.PredictCodes(nil, q, want)
		for i, v := range want {
			want[i] = unlogTarget(v)
		}
		got, err := s.PredictPoolInto(make([]float64, n))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, label+": pool prediction", got, want)

		// A cut-off at the median abandons about half the rows, which
		// reads the early-stop bounds the refit rewrote.
		median := slices.Clone(want)
		slices.Sort(median)
		gotB, wantB := make([]float64, n), make([]float64, n)
		scorer(idxs, gotB, median[n/2])
		ref.PredictCodedBounded(q, idxs, wantB, logCutoff(median[n/2]))
		for i, v := range wantB {
			wantB[i] = unlogTarget(v)
		}
		sameBits(t, label+": bounded pool score", gotB, wantB)
		sameBits(t, label+": importance", s.Importance(), ref.FeatureImportance(s.width))
		gotC, wantC := s.model.Cuts(), ref.Cuts()
		if len(gotC) != len(wantC) {
			t.Fatalf("%s: cuts for %d features, want %d", label, len(gotC), len(wantC))
		}
		for f := range wantC {
			if !slices.Equal(gotC[f], wantC[f]) {
				t.Fatalf("%s: feature %d cuts %v, want %v", label, f, gotC[f], wantC[f])
			}
		}
		prev = got
	}
}

// sameBits asserts two float slices are bitwise equal.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}
