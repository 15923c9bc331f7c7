package workflow

import (
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

func TestByName(t *testing.T) {
	m := cluster.Default()
	for _, name := range []string{"LV", "HS", "GP"} {
		b, err := ByName(m, name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != name {
			t.Fatalf("ByName(%s).Name = %s", name, b.Name)
		}
	}
	if _, err := ByName(m, "nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestComponentFeaturesEnriched(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	sub := cfgspace.Config{561, 25, 1}
	f := b.Components[0].Features(m, sub)
	// raw params + [nodes, procs*threads, reserved cores]
	if len(f) != 6 {
		t.Fatalf("feature length = %d, want 6", len(f))
	}
	if f[0] != 561 || f[1] != 25 || f[2] != 1 {
		t.Fatalf("raw features wrong: %v", f)
	}
	if f[3] != 23 { // ceil(561/25)
		t.Fatalf("node feature = %v, want 23", f[3])
	}
	if f[4] != 561 {
		t.Fatalf("active-threads feature = %v, want 561", f[4])
	}
	if f[5] != 23*36 {
		t.Fatalf("reserved-cores feature = %v, want %d", f[5], 23*36)
	}
}

func TestWorkflowFeaturesTotalNodes(t *testing.T) {
	m := cluster.Default()
	for _, b := range Benchmarks(m) {
		rng := rand.New(rand.NewPCG(3, 3))
		for i := 0; i < 20; i++ {
			cfg := b.Space.Sample(rng)
			f := b.Features(cfg)
			w, err := b.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := f[len(f)-1]; got != float64(w.TotalNodes()) {
				t.Fatalf("%s: total-nodes feature %v, workflow has %d nodes (cfg %v)",
					b.Name, got, w.TotalNodes(), cfg)
			}
		}
	}
}

func TestMeasureSoloNoise(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	cs := b.Components[0]
	cfg := cfgspace.Config{128, 32, 1}
	clean, err := MeasureSolo(m, cs.BuildSolo(cfg), cs.InBytesPerStep, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := MeasureSolo(m, cs.BuildSolo(cfg), cs.InBytesPerStep, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if clean.ExecTime == noisy.ExecTime {
		t.Fatal("solo noise missing")
	}
	if r := noisy.ExecTime / clean.ExecTime; r < 0.7 || r > 1.3 {
		t.Fatalf("solo noise ratio %v implausible", r)
	}
}

func TestGPFeaturesCountFixedComponents(t *testing.T) {
	m := cluster.Default()
	b := GP(m)
	cfg := cfgspace.Config{66, 34, 41, 22}
	f := b.Features(cfg)
	// grayscott (2 raw + 3 derived) + pdf (2 raw + 3 derived) + total nodes.
	if len(f) != 11 {
		t.Fatalf("GP feature length = %d, want 11", len(f))
	}
	// total = gs nodes (2) + pdf nodes (2) + two serial plotters (1 + 1).
	if f[10] != 6 {
		t.Fatalf("GP total nodes feature = %v, want 6", f[10])
	}
}

// featuresReference is Benchmark.Features as it was first composed, kept as
// the oracle: each configurable component's raw and layout columns from its
// own Layout call, then b.nodes — which derives every layout and Sub offset
// again, unconfigurable components included — for the total.
func featuresReference(b *Benchmark, cfg cfgspace.Config) []float64 {
	var f []float64
	for j, cs := range b.Components {
		if cs.Space == nil {
			continue
		}
		sub := b.Sub(cfg, j)
		for _, v := range sub {
			f = append(f, float64(v))
		}
		l := cs.Layout(sub)
		nodes := l.Nodes()
		f = append(f, float64(nodes), float64(l.Procs*l.Threads), float64(nodes*b.Machine.CoresPerNode))
	}
	return append(f, float64(b.nodes(cfg)))
}

// TestFeaturesMatchReference: Features, which reads each component's layout
// once, is bitwise the reference composition on 10k sampled configurations
// of every benchmark (and of a declared two-stage one).
func TestFeaturesMatchReference(t *testing.T) {
	m := cluster.Default()
	for _, b := range append(Benchmarks(m), twoStage(m)) {
		cfgs := b.Space.SampleN(rand.New(rand.NewPCG(8, 5)), 10_000)
		if len(cfgs) < 1000 {
			t.Fatalf("%s: sampled only %d configurations", b.Name, len(cfgs))
		}
		for _, cfg := range append(cfgs, b.ExpertExec, b.ExpertComp) {
			got, want := b.Features(cfg), featuresReference(b, cfg)
			if len(got) != len(want) || len(got) != cap(got) {
				t.Fatalf("%s %v: %d features (cap %d), reference %d", b.Name, cfg, len(got), cap(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %v: feature %d = %v, reference %v", b.Name, cfg, i, got[i], want[i])
				}
			}
		}
	}
}

// TestComponentFeaturesTileFeatures: on 2000 sampled configurations of LV,
// HS and GP (whose plotters are unconfigurable), the configurable
// components' own features are, bit for bit and in component order, the
// workflow features from column 0 up to the trailing total node count —
// the layout the tuner's low-fidelity model assumes when it reads the
// pool's workflow feature codes.
func TestComponentFeaturesTileFeatures(t *testing.T) {
	m := cluster.Default()
	for _, b := range Benchmarks(m) {
		for _, cfg := range b.Space.SampleN(rand.New(rand.NewPCG(8, 6)), 2000) {
			row := b.Features(cfg)
			next := 0
			for j, cs := range b.Components {
				if cs.Space == nil {
					continue
				}
				x := cs.Features(m, b.Sub(cfg, j))
				if next+len(x) > len(row) {
					t.Fatalf("%s %v: %s's %d features follow column %d of %d", b.Name, cfg, cs.Name, len(x), next, len(row))
				}
				for k, v := range x {
					if math.Float64bits(v) != math.Float64bits(row[next+k]) {
						t.Fatalf("%s %v: %s feature %d = %v, workflow column %d = %v", b.Name, cfg, cs.Name, k, v, next+k, row[next+k])
					}
				}
				next += len(x)
			}
			if next != len(row)-1 {
				t.Fatalf("%s %v: components cover %d of %d columns, want all but totalNodes", b.Name, cfg, next, len(row))
			}
		}
	}
}

// twoStage declares a two-component benchmark the way
// examples/customworkflow does: one shared component space with its own
// 24-node cap, one layout function, two specs and an edge.
func twoStage(m cluster.Machine) *Benchmark {
	space := &cfgspace.Space{
		Params: []cfgspace.Param{cfgspace.NewParam("procs", 2, 840), cfgspace.NewParam("ppn", 1, 35)},
		Valid:  func(c cfgspace.Config) bool { return apps.ProcsLayout(c).Nodes() <= 24 },
	}
	return NewBenchmark(Benchmark{
		Name:    "TWO",
		Machine: m,
		Components: []ComponentSpec{
			{Name: "sim", Space: space, Layout: apps.ProcsLayout,
				BuildSolo: func(cfg cfgspace.Config) *apps.Component { return apps.NewGrayScott(m, cfg) }},
			{Name: "ana", Space: space, Layout: apps.ProcsLayout,
				BuildSolo:      func(cfg cfgspace.Config) *apps.Component { return apps.NewPDFCalc(m, cfg) },
				InBytesPerStep: apps.GrayScottStepBytes},
		},
		Edges:      []Edge{{From: 0, To: 1}},
		ExpertExec: cfgspace.Config{420, 35, 210, 35},
		ExpertComp: cfgspace.Config{70, 35, 35, 35},
	})
}

// TestDerivedSpaceMatchesBuild ties the derived space to the workflows it
// admits, over raw cross-product draws: a configuration is in the space
// exactly when the allocation rule written out by hand (the pre-derivation
// joint closures, column numbers and all) accepts it, exactly when Build
// succeeds — and what Build returns passes the workflow's own Validate, so
// the space's allocation rule and the workflow's cannot drift apart.
func TestDerivedSpaceMatchesBuild(t *testing.T) {
	m := cluster.Default()
	nodes := cluster.NodesFor
	oracles := []struct {
		b     *Benchmark
		nodes func(c cfgspace.Config) (each []int)
		own   int // every component's own node cap
	}{
		{LV(m), func(c cfgspace.Config) []int { return []int{nodes(c[0], c[1]), nodes(c[3], c[4])} }, 32},
		{HS(m), func(c cfgspace.Config) []int { return []int{nodes(c[0]*c[1], c[2]), nodes(c[5], c[6])} }, 32},
		{GP(m), func(c cfgspace.Config) []int { return []int{nodes(c[0], c[1]), nodes(c[2], c[3]), 1, 1} }, 32},
		{twoStage(m), func(c cfgspace.Config) []int { return []int{nodes(c[0], c[1]), nodes(c[2], c[3])} }, 24},
	}
	for _, o := range oracles {
		b := o.b
		rng := rand.New(rand.NewPCG(20, 20))
		cfg := make(cfgspace.Config, b.Space.Dim())
		valid := 0
		for draw := 0; draw < 10000; draw++ {
			for i, p := range b.Space.Params {
				cfg[i] = p.Value(rng.IntN(p.Count()))
			}
			want, total := true, 0
			for _, n := range o.nodes(cfg) {
				want = want && n <= o.own
				total += n
			}
			want = want && total <= m.MaxAllocNodes
			if got := b.Space.IsValid(cfg); got != want {
				t.Fatalf("%s: IsValid(%v) = %v, hand-written rule says %v", b.Name, cfg, got, want)
			}
			w, err := b.Build(cfg)
			if (err == nil) != want {
				t.Fatalf("%s: Build(%v) error %v, want valid = %v", b.Name, cfg, err, want)
			}
			if !want {
				continue
			}
			valid++
			if err := w.Validate(); err != nil {
				t.Fatalf("%s: Build(%v) returned an unsound workflow: %v", b.Name, cfg, err)
			}
			if w.TotalNodes() != total {
				t.Fatalf("%s: %v occupies %d nodes, hand-written rule says %d", b.Name, cfg, w.TotalNodes(), total)
			}
		}
		if valid == 0 || valid == 10000 {
			t.Fatalf("%s: %d of 10000 raw draws valid; the test needs both sides", b.Name, valid)
		}
	}
}

// TestBuildCouplesSteps: Build gives every consumer its producer's step
// count — Stage Write follows Heat Transfer's "# outputs" — while a solo
// Stage Write keeps the representative count a standalone run must guess.
func TestBuildCouplesSteps(t *testing.T) {
	b := HS(cluster.Default())
	rng := rand.New(rand.NewPCG(21, 21))
	for i := 0; i < 200; i++ {
		cfg := b.Space.Sample(rng)
		w, err := b.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if outputs := cfg[3]; w.Components[0].Steps != outputs || w.Components[1].Steps != outputs {
			t.Fatalf("%v: heat runs %d steps, stage write %d, want %d outputs",
				cfg, w.Components[0].Steps, w.Components[1].Steps, outputs)
		}
		if solo := b.Components[1].BuildSolo(b.Sub(cfg, 1)); solo.Steps != SoloStageWriteSteps {
			t.Fatalf("solo stage write runs %d steps, want %d", solo.Steps, SoloStageWriteSteps)
		}
	}
}
