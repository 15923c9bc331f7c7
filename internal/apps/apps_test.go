package apps

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

func TestLayoutNodes(t *testing.T) {
	if (Layout{Procs: 561, PPN: 25}).Nodes() != 23 {
		t.Fatal("Nodes math wrong")
	}
	if (Layout{Procs: 10, PPN: 35}).usedPPN() != 10 {
		t.Fatal("usedPPN should be procs when procs < ppn")
	}
}

func TestScalingMoreProcsFasterUntilCommDominates(t *testing.T) {
	m := cluster.Default()
	s := scaling{workCoreSec: 100, commAlpha: 0.01, commBeta: 0.002, imbAmp: 0.15, imbExp: 1.5, memPerCore: 2.5e9}
	t16 := s.stepTime(m, Layout{Procs: 16, PPN: 16, Threads: 1})
	t256 := s.stepTime(m, Layout{Procs: 256, PPN: 32, Threads: 1})
	if t256 >= t16 {
		t.Fatalf("scaling broken: t(256)=%v >= t(16)=%v", t256, t16)
	}
	// Per-step time falls slower than ideal: efficiency below 1 at scale.
	ideal := t16 * 16 / 256
	if t256 <= ideal {
		t.Fatalf("t(256)=%v is superlinear vs ideal %v", t256, ideal)
	}
}

func TestScalingOversubscriptionPenalty(t *testing.T) {
	m := cluster.Default()
	s := scaling{workCoreSec: 100, threadFrac: 0.85, memPerCore: 1e9}
	packed := s.stepTime(m, Layout{Procs: 35, PPN: 35, Threads: 1})
	oversub := s.stepTime(m, Layout{Procs: 35, PPN: 35, Threads: 4}) // 140 threads on 36 cores
	if oversub <= packed {
		t.Fatalf("4x oversubscription not penalized: %v <= %v", oversub, packed)
	}
}

func TestScalingThreadsHelpWhenCoresFree(t *testing.T) {
	m := cluster.Default()
	s := scaling{workCoreSec: 100, threadFrac: 0.85, memPerCore: 1e9}
	one := s.stepTime(m, Layout{Procs: 32, PPN: 8, Threads: 1})
	four := s.stepTime(m, Layout{Procs: 32, PPN: 8, Threads: 4}) // 32 threads/node, fits
	if four >= one {
		t.Fatalf("threads on free cores did not help: %v >= %v", four, one)
	}
	// But never more than the Amdahl bound.
	bound := 1 / ((1 - 0.85) + 0.85/4.0)
	if one/four > bound+1e-9 {
		t.Fatalf("thread speedup %v exceeds Amdahl bound %v", one/four, bound)
	}
}

func TestScalingMemoryContention(t *testing.T) {
	m := cluster.Default()
	s := scaling{workCoreSec: 100, memPerCore: 6e9} // 20 cores saturate the node
	lowPPN := s.stepTime(m, Layout{Procs: 64, PPN: 16, Threads: 1})
	highPPN := s.stepTime(m, Layout{Procs: 64, PPN: 32, Threads: 1})
	if highPPN <= lowPPN {
		t.Fatalf("memory contention missing: ppn32 %v <= ppn16 %v", highPPN, lowPPN)
	}
}

func TestStepTimePositiveProperty(t *testing.T) {
	m := cluster.Default()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		s := scaling{
			workCoreSec: rng.Float64() * 200,
			serialSec:   rng.Float64() * 0.01,
			threadFrac:  rng.Float64(),
			memPerCore:  rng.Float64() * 10e9,
			commAlpha:   rng.Float64() * 0.02,
			commBeta:    rng.Float64() * 0.004,
			imbAmp:      rng.Float64() * 0.3,
			imbExp:      0.5 + rng.Float64()*2,
		}
		l := Layout{Procs: 1 + rng.IntN(1085), PPN: 1 + rng.IntN(35), Threads: 1 + rng.IntN(4)}
		dt := s.stepTime(m, l)
		return dt > 0 && !math.IsInf(dt, 0) && !math.IsNaN(dt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkPlanMath(t *testing.T) {
	m := cluster.Default()
	heat := NewHeatTransfer(m, cfgspace.Config{8, 8, 16, 8, 40})
	wantChunks := int(math.Ceil(float64(HeatStepBytes) / 40e6))
	if got := heat.ChunksPerStep(); got != wantChunks {
		t.Fatalf("ChunksPerStep = %d, want %d", got, wantChunks)
	}
	last := heat.OutBytes - float64(wantChunks-1)*heat.ChunkBytes
	if last <= 0 || last > heat.ChunkBytes {
		t.Fatalf("%d chunks of %v leave a last chunk of %v", wantChunks, heat.ChunkBytes, last)
	}
}

func TestChunkPlanWholePayload(t *testing.T) {
	m := cluster.Default()
	l := NewLAMMPS(m, cfgspace.Config{64, 32, 1})
	if l.ChunksPerStep() != 1 {
		t.Fatalf("LAMMPS chunks = %d, want 1", l.ChunksPerStep())
	}
	sink := NewVoro(m, cfgspace.Config{64, 32, 1})
	if sink.ChunksPerStep() != 0 {
		t.Fatalf("sink chunks = %d, want 0", sink.ChunksPerStep())
	}
}

func TestTable1Spaces(t *testing.T) {
	cases := []struct {
		name    string
		space   *cfgspace.Space
		rawSize float64
	}{
		{"lammps", LAMMPSSpace(), 1084 * 35 * 4},
		{"voro", VoroSpace(), 1084 * 35 * 4},
		{"heat", HeatSpace(), 31 * 31 * 35 * 8 * 40},
		{"stagewrite", StageWriteSpace(), 1084 * 35},
		{"grayscott", GrayScottSpace(), 1084 * 35},
		{"pdf", PDFSpace(), 512 * 35},
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for _, c := range cases {
		if got := c.space.RawSize(); got != c.rawSize {
			t.Errorf("%s: RawSize = %v, want %v", c.name, got, c.rawSize)
		}
		for i := 0; i < 50; i++ {
			cfg := c.space.Sample(rng)
			if !c.space.IsValid(cfg) {
				t.Errorf("%s: invalid sample %v", c.name, cfg)
			}
		}
	}
}

func TestHeatOutputsSetSteps(t *testing.T) {
	m := cluster.Default()
	for _, outputs := range []int{4, 16, 32} {
		h := NewHeatTransfer(m, cfgspace.Config{8, 8, 16, outputs, 10})
		if h.Steps != outputs {
			t.Fatalf("outputs=%d gave Steps=%d", outputs, h.Steps)
		}
	}
	// Total compute is fixed: per-step time shrinks as outputs grow.
	few := NewHeatTransfer(m, cfgspace.Config{8, 8, 16, 4, 10})
	many := NewHeatTransfer(m, cfgspace.Config{8, 8, 16, 32, 10})
	fewTotal := few.StepTime(0) * float64(few.Steps)
	manyTotal := many.StepTime(0) * float64(many.Steps)
	if math.Abs(fewTotal-manyTotal)/fewTotal > 0.05 {
		t.Fatalf("total compute varies with outputs: %v vs %v", fewTotal, manyTotal)
	}
}

func TestHeatAspectPenalty(t *testing.T) {
	m := cluster.Default()
	square := NewHeatTransfer(m, cfgspace.Config{16, 16, 16, 8, 10})
	skewed := NewHeatTransfer(m, cfgspace.Config{32, 8, 16, 8, 10})
	if skewed.StepTime(0) <= square.StepTime(0) {
		t.Fatalf("skewed decomposition not penalized: %v <= %v", skewed.StepTime(0), square.StepTime(0))
	}
}

func TestPFSCap(t *testing.T) {
	m := cluster.Default()
	small := PFSCap(m, Layout{Procs: 4, PPN: 4, Threads: 1})
	if small != 4*perProcPFSRate {
		t.Fatalf("small layout cap = %v", small)
	}
	big := PFSCap(m, Layout{Procs: 1085, PPN: 35, Threads: 1})
	if big != m.PFSRate(31) {
		t.Fatalf("big layout cap = %v, want node-limited %v", big, m.PFSRate(31))
	}
}

func TestPlottersAreSerialConstants(t *testing.T) {
	m := cluster.Default()
	g := NewGPlot(m)
	if g.Layout.Procs != 1 || g.Nodes() != 1 {
		t.Fatalf("gplot layout %+v", g.Layout)
	}
	if g.StepTime(0)*float64(g.Steps) != 97.0 {
		t.Fatalf("gplot total = %v, want 97s (paper)", g.StepTime(0)*float64(g.Steps))
	}
	p := NewPPlot(m)
	if p.StepTime(3) != 0.30 {
		t.Fatalf("pplot step = %v", p.StepTime(3))
	}
}
