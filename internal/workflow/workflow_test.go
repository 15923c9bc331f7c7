package workflow

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

func lvConfig() cfgspace.Config { return cfgspace.Config{288, 18, 2, 288, 18, 2} }

func TestLVInSituBasics(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	w, err := b.Build(lvConfig())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	if meas.ExecTime <= 0 {
		t.Fatalf("ExecTime = %v", meas.ExecTime)
	}
	wantComp := meas.ExecTime * float64(w.TotalNodes()*m.CoresPerNode) / 3600
	if math.Abs(meas.CompTime-wantComp) > 1e-9 {
		t.Fatalf("CompTime = %v, want exec*nodes*cores/3600 = %v", meas.CompTime, wantComp)
	}
	if len(meas.PerComponent) != 2 {
		t.Fatalf("PerComponent = %v", meas.PerComponent)
	}
	// The makespan is the slowest component's wall time.
	if meas.ExecTime != math.Max(meas.PerComponent[0], meas.PerComponent[1]) {
		t.Fatalf("ExecTime %v != max of %v", meas.ExecTime, meas.PerComponent)
	}
}

func TestInSituDeterministic(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	var prev Measurement
	for i := 0; i < 3; i++ {
		w, err := b.Build(lvConfig())
		if err != nil {
			t.Fatal(err)
		}
		meas, err := w.RunInSitu()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (meas.ExecTime != prev.ExecTime || meas.CompTime != prev.CompTime) {
			t.Fatalf("run %d: %+v != %+v", i, meas, prev)
		}
		prev = meas
	}
}

func TestInSituAtLeastSlowestSoloCompute(t *testing.T) {
	// The coupled makespan cannot beat any component's pure compute time:
	// synchronization and transfers only add to it.
	m := cluster.Default()
	b := LV(m)
	cfg := lvConfig()
	w, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range w.Components {
		compute := 0.0
		for s := 0; s < c.Steps; s++ {
			compute += c.StepTime(s)
		}
		if meas.PerComponent[j] < compute {
			t.Fatalf("component %s wall %v < pure compute %v", c.Name, meas.PerComponent[j], compute)
		}
	}
}

func TestBackpressureThrottlesProducer(t *testing.T) {
	// A Voro++ slow enough to be the bottleneck must stretch LAMMPS's wall
	// time beyond what LAMMPS achieves with an oversized Voro++.
	m := cluster.Default()
	b := LV(m)
	fast, err := b.Build(cfgspace.Config{112, 28, 1, 512, 32, 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := b.Build(cfgspace.Config{112, 28, 1, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := fast.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := slow.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	if sm.PerComponent[0] <= fm.PerComponent[0]*1.5 {
		t.Fatalf("backpressure missing: producer wall %v with slow consumer vs %v with fast",
			sm.PerComponent[0], fm.PerComponent[0])
	}
}

func TestSmallerStagingBufferIsSlower(t *testing.T) {
	// HS with a 1 MB staging buffer pays per-chunk rendezvous ~100x more
	// often than with 40 MB; execution must be strictly slower.
	m := cluster.Default()
	b := HS(m)
	small, err := b.Build(cfgspace.Config{13, 17, 14, 32, 1, 19, 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := b.Build(cfgspace.Config{13, 17, 14, 32, 40, 19, 3})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := small.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := big.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	if sm.ExecTime <= bm.ExecTime {
		t.Fatalf("1MB buffer exec %v <= 40MB buffer exec %v", sm.ExecTime, bm.ExecTime)
	}
}

func TestGPlotIsBottleneck(t *testing.T) {
	// At a well-provisioned GP configuration, the serial G-Plot pins the
	// makespan near its solo time (~97 s), per the paper's Table 2 note.
	m := cluster.Default()
	b := GP(m)
	w, err := b.Build(cfgspace.Config{350, 25, 64, 16})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	gplotSolo := 1.94 * float64(apps.GPSteps)
	if meas.ExecTime < gplotSolo {
		t.Fatalf("exec %v below G-Plot serial floor %v", meas.ExecTime, gplotSolo)
	}
	if meas.ExecTime > gplotSolo*1.15 {
		t.Fatalf("exec %v far above G-Plot floor %v; GS should keep up here", meas.ExecTime, gplotSolo)
	}
}

func TestSoloRun(t *testing.T) {
	m := cluster.Default()
	c := apps.NewVoro(m, cfgspace.Config{75, 14, 1})
	meas, err := RunSolo(m, c, apps.LVStepBytes)
	if err != nil {
		t.Fatal(err)
	}
	if meas.ExecTime <= 0 || len(meas.PerComponent) != 1 {
		t.Fatalf("bad solo measurement %+v", meas)
	}
	compute := c.StepTime(0) * float64(c.Steps)
	if meas.ExecTime < compute {
		t.Fatalf("solo exec %v < pure compute %v", meas.ExecTime, compute)
	}
}

func TestValidateRejectsBadWorkflows(t *testing.T) {
	m := cluster.Default()
	lammps := apps.NewLAMMPS(m, cfgspace.Config{64, 32, 1})
	voro := apps.NewVoro(m, cfgspace.Config{64, 32, 1})

	t.Run("steps mismatch", func(t *testing.T) {
		bad := apps.NewStageWrite(m, cfgspace.Config{8, 8}, 7)
		w := &Workflow{Name: "x", Machine: m, Components: []*apps.Component{lammps, bad}, Edges: []Edge{{0, 1}}}
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "steps") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("edge from sink", func(t *testing.T) {
		w := &Workflow{Name: "x", Machine: m, Components: []*apps.Component{voro, lammps}, Edges: []Edge{{0, 1}}}
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "no output") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("self edge", func(t *testing.T) {
		w := &Workflow{Name: "x", Machine: m, Components: []*apps.Component{lammps, voro}, Edges: []Edge{{0, 0}}}
		if err := w.Validate(); err == nil {
			t.Fatal("self edge accepted")
		}
	})
	t.Run("allocation cap", func(t *testing.T) {
		a := apps.NewLAMMPS(m, cfgspace.Config{1085, 35, 1}) // 31 nodes
		b := apps.NewVoro(m, cfgspace.Config{70, 35, 1})     // 2 nodes -> 33 total
		w := &Workflow{Name: "x", Machine: m, Components: []*apps.Component{a, b}, Edges: []Edge{{0, 1}}}
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "allocation cap") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		a := apps.NewLAMMPS(m, cfgspace.Config{64, 32, 1})
		b := apps.NewGrayScott(m, cfgspace.Config{64, 32})
		b.Steps = a.Steps
		w := &Workflow{Name: "x", Machine: m, Components: []*apps.Component{a, b}, Edges: []Edge{{0, 1}, {1, 0}}}
		if _, err := w.RunInSitu(); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestMeasureNoise(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	w, err := b.Build(lvConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := w.Measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 0))
	noisy, err := w.Measure(rng)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.ExecTime == clean.ExecTime {
		t.Fatal("noise did not perturb the measurement")
	}
	ratio := noisy.ExecTime / clean.ExecTime
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("noise ratio %v outside plausible range", ratio)
	}
	// Noise must preserve the exec/computer-time relation.
	if math.Abs(noisy.CompTime/clean.CompTime-ratio) > 1e-9 {
		t.Fatalf("noise skewed CompTime inconsistently")
	}
}

func TestBenchmarksSampledConfigsRun(t *testing.T) {
	m := cluster.Default()
	rng := rand.New(rand.NewPCG(7, 7))
	for _, b := range Benchmarks(m) {
		for i := 0; i < 5; i++ {
			cfg := b.Space.Sample(rng)
			w, err := b.Build(cfg)
			if err != nil {
				t.Fatalf("%s: build %v: %v", b.Name, cfg, err)
			}
			meas, err := w.RunInSitu()
			if err != nil {
				t.Fatalf("%s: run %v: %v", b.Name, cfg, err)
			}
			if meas.ExecTime <= 0 || meas.CompTime <= 0 {
				t.Fatalf("%s: nonpositive measurement %+v for %v", b.Name, meas, cfg)
			}
		}
	}
}

func TestExpertConfigsValid(t *testing.T) {
	m := cluster.Default()
	for _, b := range Benchmarks(m) {
		for _, cfg := range []cfgspace.Config{b.ExpertExec, b.ExpertComp} {
			if !b.Space.IsValid(cfg) {
				t.Errorf("%s: expert config %v invalid", b.Name, cfg)
			}
		}
	}
}

func TestBenchmarkSubDims(t *testing.T) {
	m := cluster.Default()
	b := HS(m)
	if heat, sw := b.Components[0].Dim(), b.Components[1].Dim(); heat != 5 || sw != 2 {
		t.Fatalf("HS dims = %d, %d", heat, sw)
	}
	cfg := cfgspace.Config{13, 17, 14, 4, 29, 19, 3}
	if b.Sub(cfg, 0).Key() != "13,17,14,4,29" {
		t.Fatalf("heat sub = %v", b.Sub(cfg, 0))
	}
	if b.Sub(cfg, 1).Key() != "19,3" {
		t.Fatalf("sw sub = %v", b.Sub(cfg, 1))
	}
}

func TestSoloComponentsOfBenchmarks(t *testing.T) {
	m := cluster.Default()
	rng := rand.New(rand.NewPCG(11, 11))
	for _, b := range Benchmarks(m) {
		for _, cs := range b.Components {
			var cfg cfgspace.Config
			if cs.Space != nil {
				cfg = cs.Space.Sample(rng)
			}
			c := cs.BuildSolo(cfg)
			meas, err := RunSolo(m, c, cs.InBytesPerStep)
			if err != nil {
				t.Fatalf("%s/%s solo: %v", b.Name, cs.Name, err)
			}
			if meas.ExecTime <= 0 {
				t.Fatalf("%s/%s solo: bad measurement %+v", b.Name, cs.Name, meas)
			}
		}
	}
}
