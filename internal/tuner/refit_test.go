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
// it replaced, holds after every refit the model a fresh xgb.FitOn makes
// of the same samples: pool predictions, bounded pool scores, importance
// and split thresholds bitwise equal. The sample sets grow batch by batch
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
		err := s.Train(set)
		if k == len(steps)-2 {
			if !errors.Is(err, xgb.ErrBadTrainingData) {
				t.Fatalf("%s: err = %v, want ErrBadTrainingData", label, err)
			}
			got, err := s.PredictPoolInto(p.Pool, make([]float64, n))
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
			if scorer, err = s.poolScorer(p); err != nil {
				t.Fatal(err)
			}
		}

		X, y := make([][]float64, len(set)), make([]float64, len(set))
		for i, smp := range set {
			X[i], y[i] = p.Space.Features(smp.Cfg), logTarget(smp.Value)
		}
		ref, err := xgb.FitOn(nil, X, y, xgb.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		ref.PredictBatchQuantizedOnInto(nil, q, want)
		for i, v := range want {
			want[i] = unlogTarget(v)
		}
		got, err := s.PredictPoolInto(p.Pool, make([]float64, n))
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
		gotT, wantT := s.model.Thresholds(), ref.Thresholds()
		if len(gotT) != len(wantT) {
			t.Fatalf("%s: thresholds for %d features, want %d", label, len(gotT), len(wantT))
		}
		for f := range wantT {
			sameBits(t, fmt.Sprintf("%s: feature %d thresholds", label, f), gotT[f], wantT[f])
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
