package ceal

import (
	"errors"
	"strings"
	"testing"

	"ceal/internal/score"
)

func TestQuickstartFlow(t *testing.T) {
	m := DefaultMachine()
	b := BenchmarkLV(m)
	p := NewProblem(b, CompTime, 150, 1)
	res, err := NewCEAL().Tune(p, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Space.IsValid(res.Best) {
		t.Fatalf("tuned config %v invalid", res.Best)
	}
	w, err := b.Build(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	if meas.CompTime <= 0 {
		t.Fatalf("bad measurement %+v", meas)
	}
}

func TestAlgorithmByName(t *testing.T) {
	for _, name := range []string{"rs", "AL", "geist", "alph", "CEAL"} {
		alg, err := AlgorithmByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alg == nil {
			t.Fatalf("%s: nil algorithm", name)
		}
	}
	if _, err := AlgorithmByName("gradient-descent"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBenchmarkByName(t *testing.T) {
	m := DefaultMachine()
	for _, name := range []string{"LV", "HS", "GP"} {
		b, err := BenchmarkByName(m, name)
		if err != nil || b.Name != name {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := BenchmarkByName(m, "XX"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestLiveEvaluatorDeterministicPerConfig(t *testing.T) {
	m := DefaultMachine()
	b := BenchmarkLV(m)
	e := &LiveEvaluator{Bench: b, Obj: ExecTime, Seed: 7}
	cfg := Config{112, 28, 1, 36, 18, 4}
	v1, err := e.MeasureWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.MeasureWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("same config measured differently: %v vs %v", v1, v2)
	}
	// Different configs (and component runs) get independent noise.
	if _, err := e.MeasureComponent(0, Config{112, 28, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MeasureComponent(9, nil); err == nil {
		t.Fatal("out-of-range component accepted")
	}
}

func TestLiveEvaluatorObjectives(t *testing.T) {
	m := DefaultMachine()
	b := BenchmarkLV(m)
	cfg := Config{112, 28, 1, 36, 18, 4}
	exec, err := (&LiveEvaluator{Bench: b, Obj: ExecTime, Seed: 7}).MeasureWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := (&LiveEvaluator{Bench: b, Obj: CompTime, Seed: 7}).MeasureWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 6 nodes * 36 cores: comp = exec * 216/3600.
	ratio := comp / exec * 3600 / 36
	if ratio < 5.9 || ratio > 6.1 {
		t.Fatalf("exec/comp relation off: implied nodes %v", ratio)
	}
}

func TestExperimentsExposed(t *testing.T) {
	if len(Experiments()) < 13 {
		t.Fatalf("only %d experiments exposed", len(Experiments()))
	}
}

func TestEnergyObjectiveFacade(t *testing.T) {
	m := DefaultMachine()
	b := BenchmarkLV(m)
	eval := &LiveEvaluator{Bench: b, Obj: Energy, Seed: 5}
	e, err := eval.MeasureWorkflow(Config{112, 28, 1, 36, 18, 4})
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatalf("energy = %v", e)
	}
	// Tuning the energy objective through the facade must work end to end.
	p := NewProblem(b, Energy, 120, 5)
	res, err := NewCEAL().Tune(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Space.IsValid(res.Best) {
		t.Fatalf("invalid best %v", res.Best)
	}
}

// TestWideColumnRefused: a custom benchmark whose parameter is declared
// with more values than a rank code holds is refused when it is declared,
// before any pool exists: NewBenchmark panics with score.ErrWideColumn
// naming the column. The refusal builds none of the 2^30 values' table.
func TestWideColumnRefused(t *testing.T) {
	m := DefaultMachine()
	layout := func(cfg Config) Layout { return Layout{Procs: cfg[0], PPN: 1, Threads: 1} }
	err := func() (err error) {
		defer func() { err, _ = recover().(error) }()
		NewBenchmark(Benchmark{
			Name:    "WIDE",
			Machine: m,
			Components: []ComponentSpec{{
				Name:   "solver",
				Space:  &Space{Params: []Param{NewParam("procs", 1, 4), NewParam("tile", 1, 1<<30)}},
				Layout: layout,
				BuildSolo: func(cfg Config) *Component {
					t := 1 / float64(cfg[0])
					return &Component{Name: "solver", Layout: layout(cfg), Steps: 2, StepTime: func(int) float64 { return t }}
				},
			}},
			ExpertExec: Config{4, 1},
			ExpertComp: Config{1, 1},
		})
		return nil
	}()
	if !errors.Is(err, score.ErrWideColumn) || !strings.Contains(err.Error(), "solver.tile") {
		t.Fatalf("declaring a 2^30-value column: refusal %v, want score.ErrWideColumn naming solver.tile", err)
	}
}

// TestOffLatticeRefused: a custom layout whose active threads fall as a
// parameter rises is not bounded by its top corner, where NewBenchmark
// reads the bound. Its configurations cannot be coded, and tuning it fails
// with a *score.OffLatticeError naming the column, not with codes that
// stand for other values: Phase 1 codes the solver's solo runs first, by
// the solver's own columns.
func TestOffLatticeRefused(t *testing.T) {
	// At the top corner (8, 4): 8 ranks of 2 threads, so active threads is
	// declared in [1, 16]; at (8, 2) it is 32.
	layout := func(cfg Config) Layout { return Layout{Procs: cfg[0], PPN: 1, Threads: 6 - cfg[1]} }
	b := NewBenchmark(Benchmark{
		Name:    "FALLING",
		Machine: DefaultMachine(),
		Components: []ComponentSpec{{
			Name:   "solver",
			Space:  &Space{Params: []Param{NewParam("ranks", 1, 8), NewParam("threads", 2, 4)}},
			Layout: layout,
			BuildSolo: func(cfg Config) *Component {
				t := 1 / float64(cfg[0]*cfg[1])
				return &Component{Name: "solver", Layout: layout(cfg), Steps: 2, StepTime: func(int) float64 { return t }}
			},
		}},
		ExpertExec: Config{8, 4},
		ExpertComp: Config{1, 4},
	})
	p := NewProblem(b, ExecTime, 24, 1)
	var off *score.OffLatticeError
	_, err := NewCEAL().Tune(p, 10)
	if !errors.As(err, &off) || off.Col.Name != "activeThreads" || off.Value <= off.Col.Max || !strings.Contains(err.Error(), "solver") {
		t.Fatalf("tuning a pool whose active threads pass their declared bound: err = %v, want an OffLatticeError for solver's activeThreads", err)
	}
}
