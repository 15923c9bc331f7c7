package live

import (
	"math"
	"strings"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/workflow"
)

func TestParseObjective(t *testing.T) {
	for _, name := range []string{"exec", "comp", "energy"} {
		if _, err := ParseObjective(name); err != nil {
			t.Fatalf("ParseObjective(%q): %v", name, err)
		}
	}
	if _, err := ParseObjective("sideways"); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestAlgorithmByName(t *testing.T) {
	for _, name := range []string{"rs", "al", "geist", "alph", "ceal"} {
		alg, err := AlgorithmByName(name)
		if err != nil {
			t.Fatalf("AlgorithmByName(%q): %v", name, err)
		}
		if alg == nil {
			t.Fatalf("AlgorithmByName(%q) returned nil", name)
		}
	}
	if _, err := AlgorithmByName("gradient-descent"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNewProblemDeterministic(t *testing.T) {
	bench, err := workflow.ByName(cluster.Default(), "LV")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := ParseObjective("comp")
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewProblem(bench, obj, 40, 7)
	p2 := NewProblem(bench, obj, 40, 7)
	if len(p1.Pool) != 40 || p1.Seed != 7 {
		t.Fatalf("pool %d seed %d", len(p1.Pool), p1.Seed)
	}
	for i := range p1.Pool {
		if p1.Pool[i].Key() != p2.Pool[i].Key() {
			t.Fatalf("pool diverged at %d", i)
		}
	}
	// Same config, same seed: the noisy evaluator must be reproducible.
	v1, err := p1.Eval.MeasureWorkflow(p1.Pool[0])
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p2.Eval.MeasureWorkflow(p2.Pool[0])
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("evaluator not deterministic: %v vs %v", v1, v2)
	}
}

// TestNewProblemNonPositivePool: a pool size can arrive off a flag or the
// wire; zero and negative sizes must reach the tuner's own "needs a pool"
// error rather than panic while sampling.
func TestNewProblemNonPositivePool(t *testing.T) {
	bench, err := workflow.ByName(cluster.Default(), "LV")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, -5} {
		p := NewProblem(bench, workflow.CompTime, size, 1)
		if len(p.Pool) != 0 {
			t.Fatalf("pool size %d sampled %d configurations", size, len(p.Pool))
		}
		alg, _ := AlgorithmByName("rs")
		if _, err := alg.Tune(p, 5); err == nil || !strings.Contains(err.Error(), "needs a space, a pool") {
			t.Fatalf("pool size %d: Tune error %v, want the problem-validation error", size, err)
		}
	}
}

// BenchmarkSurrogateFit fits the default surrogate (log targets, default
// parameters, one core, a fresh trainer) on each paper benchmark's pool
// codes of 42 seeded configurations and their measured computer time: the
// size of a late CEAL refit, over every column the tuner's workflow fits
// scan.
func BenchmarkSurrogateFit(b *testing.B) {
	for _, name := range []string{"LV", "HS", "GP"} {
		bench, err := workflow.ByName(cluster.Default(), name)
		if err != nil {
			b.Fatal(err)
		}
		p := NewProblem(bench, workflow.CompTime, 42, 7)
		q, err := score.Encode(nil, p.Pool, bench.Space.Columns())
		if err != nil {
			b.Fatal(err)
		}
		rows, y := make([]int32, len(p.Pool)), make([]float64, len(p.Pool))
		for i, cfg := range p.Pool {
			v, err := p.Eval.MeasureWorkflow(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rows[i], y[i] = int32(i), math.Log(v)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := xgb.NewTrainer(nil).Fit(q, rows, y, xgb.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
