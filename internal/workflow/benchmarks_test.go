package workflow

import (
	"math"
	"math/rand/v2"
	"slices"
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
	for _, c := range []struct {
		b    *Benchmark
		j    int
		sub  cfgspace.Config
		want []float64
	}{
		// raw params + [nodes, procs*threads]
		{LV(m), 0, cfgspace.Config{561, 25, 1}, []float64{561, 25, 1, 23, 561}}, // 23 = ceil(561/25)
		{LV(m), 0, cfgspace.Config{128, 16, 3}, []float64{128, 16, 3, 8, 384}},
		// raw params + [nodes]: procs × 1 threads is procs again
		{GP(m), 1, cfgspace.Config{41, 22}, []float64{41, 22, 2}},
	} {
		if got := c.b.Components[c.j].Features(c.sub); !slices.Equal(got, c.want) {
			t.Errorf("%s features of %v = %v, want %v", c.b.Components[c.j].Name, c.sub, got, c.want)
		}
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
	// grayscott (2 raw + nodes) + pdf (2 raw + nodes) + total nodes.
	if len(f) != 7 {
		t.Fatalf("GP feature length = %d, want 7", len(f))
	}
	// total = gs nodes (2) + pdf nodes (2) + two serial plotters (1 + 1).
	if f[6] != 6 {
		t.Fatalf("GP total nodes feature = %v, want 6", f[6])
	}
}

// TestFeatureWidths: each benchmark names every column Features returns,
// at the widths its components' layouts give.
func TestFeatureWidths(t *testing.T) {
	m := cluster.Default()
	want := map[string]int{"LV": 11, "HS": 11, "GP": 7, "TWO": 7}
	for _, b := range append(Benchmarks(m), twoStage(m)) {
		names, f := b.FeatureNames(), b.Features(b.ExpertComp)
		if len(names) != want[b.Name] || len(f) != len(names) {
			t.Errorf("%s: %d features, %d names, want %d of each", b.Name, len(f), len(names), want[b.Name])
		}
	}
}

// featuresReference is Benchmark.Features composed by hand, kept as the
// oracle: each configurable component's raw columns and node count from its
// own Layout call, its active threads only where the layout multiplies
// parameters (procs × threads, procsX × procsY: the components named in
// multiplies), then b.nodes — which derives every layout and Sub offset
// again, unconfigurable components included — for the total.
func featuresReference(b *Benchmark, cfg cfgspace.Config) []float64 {
	multiplies := map[string]bool{"lammps": true, "voro": true, "heat": true}
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
		f = append(f, float64(l.Nodes()))
		if multiplies[cs.Name] {
			f = append(f, float64(l.Procs*l.Threads))
		}
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
				x := cs.Features(b.Sub(cfg, j))
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

// TestFeaturesSayEachThingOnce: no feature column orders rows exactly as
// another does. Such a twin offers every split the other offers, at the
// same gain bit for bit, so the fit never picks it; yet every fit scans
// it, every pool codes it and every featurizer computes it. Each
// benchmark's workflow features are rank-coded over 10k seeded
// configurations, and each configurable component's own features over 2k
// of its space; a layout's active threads, where Features leaves them out,
// must be one of its parameters on every sampled row.
func TestFeaturesSayEachThingOnce(t *testing.T) {
	m := cluster.Default()
	for _, b := range append(Benchmarks(m), twoStage(m)) {
		rng := rand.New(rand.NewPCG(36, 1))
		names := b.FeatureNames()
		var rows [][]float64
		for _, cfg := range b.Space.SampleN(rng, 10_000) {
			rows = append(rows, b.Features(cfg))
		}
		for _, p := range twins(names, rows) {
			t.Errorf("%s: %s", b.Name, p)
		}
		at := 0
		for _, cs := range b.Components {
			if cs.Space == nil {
				continue
			}
			rows = rows[:0]
			for _, sub := range cs.Space.SampleN(rng, 2000) {
				x := cs.Features(sub)
				if l := cs.Layout(sub); len(x) == len(sub)+1 && !slices.Contains(sub, l.Procs*l.Threads) {
					t.Fatalf("%s %v: active threads %d left out, but no parameter holds it", cs.Name, sub, l.Procs*l.Threads)
				}
				rows = append(rows, x)
			}
			w := len(rows[0])
			for _, p := range twins(names[at:at+w], rows) {
				t.Errorf("%s %s: %s", b.Name, cs.Name, p)
			}
			at += w
		}
	}
}

// twins returns the pairs of columns, named by names, whose rank codes
// over rows are equal: each orders the rows exactly as the other does.
func twins(names []string, rows [][]float64) []string {
	codes := make([][]int, len(names))
	for c := range names {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = r[c]
		}
		sorted := slices.Compact(slices.Sorted(slices.Values(col)))
		codes[c] = make([]int, len(col))
		for i, v := range col {
			codes[c][i], _ = slices.BinarySearch(sorted, v)
		}
	}
	var out []string
	for a := range codes {
		for b := a + 1; b < len(codes); b++ {
			if slices.Equal(codes[a], codes[b]) {
				out = append(out, names[a]+" orders rows as "+names[b]+" does")
			}
		}
	}
	return out
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
