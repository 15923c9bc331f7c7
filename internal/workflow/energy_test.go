package workflow

import (
	"math/rand/v2"
	"testing"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

func TestEnergyWithinPhysicalBounds(t *testing.T) {
	m := cluster.Default()
	for _, b := range Benchmarks(m) {
		rng := rand.New(rand.NewPCG(5, 5))
		for i := 0; i < 10; i++ {
			cfg := b.Space.Sample(rng)
			w, err := b.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := w.RunInSitu()
			if err != nil {
				t.Fatal(err)
			}
			nodes := float64(w.TotalNodes())
			idleFloor := m.IdleWatts * nodes * meas.ExecTime / 1000
			activeCeil := m.ActiveWatts * nodes * meas.ExecTime / 1000
			if meas.EnergyKJ < idleFloor {
				t.Fatalf("%s %v: energy %v below idle floor %v", b.Name, cfg, meas.EnergyKJ, idleFloor)
			}
			if meas.EnergyKJ > activeCeil*1.0001 {
				t.Fatalf("%s %v: energy %v above all-cores-busy ceiling %v", b.Name, cfg, meas.EnergyKJ, activeCeil)
			}
		}
	}
}

func TestEnergyReflectsUtilization(t *testing.T) {
	// Same allocation size, but one configuration leaves the consumer
	// mostly idle waiting: busy fraction (and hence energy at equal
	// makespan) must differ in the right direction. Compare energy per
	// node-second across a balanced and an unbalanced LV configuration.
	m := cluster.Default()
	b := LV(m)
	balanced, err := b.Build(cfgspace.Config{288, 18, 2, 288, 18, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Voro++ hugely oversized: 16 nodes nearly idle.
	unbalanced, err := b.Build(cfgspace.Config{36, 18, 1, 560, 35, 1})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := balanced.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	um, err := unbalanced.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	bPerNS := bm.EnergyKJ / (bm.ExecTime * float64(balanced.TotalNodes()))
	uPerNS := um.EnergyKJ / (um.ExecTime * float64(unbalanced.TotalNodes()))
	if uPerNS >= bPerNS {
		t.Fatalf("idle-heavy run draws %.4f kJ/node-s, balanced draws %.4f; expected lower", uPerNS, bPerNS)
	}
}

func TestSoloEnergyPositiveAndBounded(t *testing.T) {
	m := cluster.Default()
	c := apps.NewLAMMPS(m, cfgspace.Config{128, 32, 1})
	meas, err := RunSolo(m, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meas.EnergyKJ <= 0 {
		t.Fatalf("solo energy = %v", meas.EnergyKJ)
	}
	ceil := m.ActiveWatts * float64(c.Nodes()) * meas.ExecTime / 1000
	if meas.EnergyKJ > ceil*1.0001 {
		t.Fatalf("solo energy %v above ceiling %v", meas.EnergyKJ, ceil)
	}
}

// checkEnergySplit asserts the first-class per-component energy metric:
// one positive entry per component, summing to the aggregate EnergyKJ.
func checkEnergySplit(t *testing.T, label string, meas Measurement, components int) {
	t.Helper()
	if len(meas.PerComponentEnergy) != components {
		t.Fatalf("%s: %d per-component energy entries, want %d", label, len(meas.PerComponentEnergy), components)
	}
	sum := 0.0
	for j, e := range meas.PerComponentEnergy {
		if e <= 0 {
			t.Fatalf("%s: component %d energy = %v, want positive", label, j, e)
		}
		sum += e
	}
	if diff := (sum - meas.EnergyKJ) / meas.EnergyKJ; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("%s: per-component energies sum to %v, aggregate is %v", label, sum, meas.EnergyKJ)
	}
}

func TestPerComponentEnergyIsFirstClass(t *testing.T) {
	m := cluster.Default()
	for _, b := range Benchmarks(m) {
		w, err := b.Build(b.Space.Sample(rand.New(rand.NewPCG(17, 17))))
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.RunInSitu()
		if err != nil {
			t.Fatal(err)
		}
		checkEnergySplit(t, b.Name+" in-situ", in, len(w.Components))
	}
	c := apps.NewLAMMPS(m, cfgspace.Config{128, 32, 1})
	solo, err := RunSolo(m, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkEnergySplit(t, "solo", solo, 1)
	// Noise scales the split by the same factor as the aggregate, so the
	// sum invariant survives measurement.
	noisy, err := MeasureSolo(m, c, 0, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	checkEnergySplit(t, "noisy solo", noisy, 1)
}

func TestNoiseScalesEnergyConsistently(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	w, err := b.Build(cfgspace.Config{112, 28, 1, 36, 18, 4})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := w.Measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := w.Measure(rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	rExec := noisy.ExecTime / clean.ExecTime
	rEnergy := noisy.EnergyKJ / clean.EnergyKJ
	if diff := rExec - rEnergy; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("noise factors diverge: exec %v vs energy %v", rExec, rEnergy)
	}
}
