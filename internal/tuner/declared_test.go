package tuner

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/score"
	"ceal/internal/workflow"
)

// simEval measures a benchmark on the simulator, noiselessly.
type simEval struct {
	b   *workflow.Benchmark
	obj workflow.Objective
}

func (e simEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	w, err := e.b.Build(cfg)
	if err != nil {
		return 0, err
	}
	meas, err := w.RunInSitu()
	return meas.Value(e.obj), err
}

func (e simEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	cs := e.b.Components[j]
	meas, err := workflow.RunSolo(e.b.Machine, cs.BuildSolo(cfg), cs.InBytesPerStep)
	return meas.Value(e.obj), err
}

// benchProblem is a problem over a benchmark's declaration, as the live
// and served problems build it.
func benchProblem(b *workflow.Benchmark, obj workflow.Objective, pool int) *Problem {
	comps := make([]ComponentInfo, len(b.Components))
	for j, cs := range b.Components {
		comps[j] = ComponentInfo{Name: cs.Name, Space: cs.Space, Cores: func(cfg cfgspace.Config) float64 {
			return float64(cs.Layout(cfg).Nodes() * b.Machine.CoresPerNode)
		}}
	}
	return &Problem{
		Name:       b.Name,
		Space:      b.Space,
		Components: comps,
		Pool:       b.Space.SampleN(rand.New(rand.NewPCG(11, 7)), pool),
		Eval:       simEval{b, obj},
		Combiner:   acm.ForObjective(obj != workflow.ExecTime),
		Workers:    2,
	}
}

// TestDeclaredCodesMatchesReference: on LV, HS and GP under both
// objectives, at pool 20k, the surrogate fitted on the pool codes built
// from the declared columns (score.Matrix.Codes, whose columns' values
// are whole lattices) predicts them bitwise as its thresholds, recounted into
// codes discovered over the featurized rows (score.QuantizeRows), predict
// those, and as its float walk predicts the rows. (M_L reads only declared
// codes; acm's TestFactoredScoreMatchesReference pins it to its float
// oracle on the same benchmarks.)
func TestDeclaredCodesMatchesReference(t *testing.T) {
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for _, obj := range []workflow.Objective{workflow.ExecTime, workflow.CompTime} {
			p := benchProblem(b, obj, 20_000)
			if err := p.validate(); err != nil {
				t.Fatal(err)
			}
			samples, err := measureBatch(p, p.Pool[:40])
			if err != nil {
				t.Fatal(err)
			}
			s := newSurrogate(p)
			if err := s.Train(poolState(p, samples)); err != nil {
				t.Fatal(err)
			}
			e, n := p.engine(), len(p.Pool)
			declared, err := p.poolCodes(p.Pool)
			if err != nil {
				t.Fatal(err)
			}
			rows := (&score.Matrix{}).Rows(e, p.Pool, p.Space.Features)
			found := score.QuantizeRows(e, rows)
			own, apart, float := make([]float64, n), make([]float64, n), make([]float64, n)
			s.model.PredictCodes(e, declared, own)
			s.model.PredictBatchQuantizedOnInto(e, found, apart)
			s.model.PredictBatchOnInto(e, rows, float)
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"xgb prediction, declared vs discovered", own, apart},
				{"xgb prediction, declared vs float rows", own, float},
			} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("%s/%s: %s: pool[%d] %v vs %v", b.Name, obj.Short(), c.what, i, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}

// TestProblemColumnsMustTileComponents: a workflow space whose columns do
// not begin with its components' columns, in order, is refused before a
// run, since the low-fidelity model would read the wrong columns.
func TestProblemColumnsMustTileComponents(t *testing.T) {
	p := synthProblem(2, 50)
	cols := p.Space.Columns()
	p.Space.Coder = cfgspace.NewCoder(append([]cfgspace.Param{cfgspace.NewParam("lead", 0, 1)}, cols.Cols...),
		func(cfg cfgspace.Config, dst []int) { cols.Ints(cfg, dst[1:]) })
	if _, err := NewCEAL().Tune(p, 10); err == nil || !strings.Contains(err.Error(), "is not workflow column") {
		t.Fatalf("a space with a leading column no component reads: err = %v, want a column mismatch", err)
	}
}
