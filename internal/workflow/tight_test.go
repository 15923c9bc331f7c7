package workflow

import (
	"strings"
	"testing"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

func TestTightlyCoupledBasics(t *testing.T) {
	m := cluster.Default()
	b := LV(m)
	w, err := b.Build(cfgspace.Config{288, 18, 2, 288, 18, 2})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunTightlyCoupled()
	if err != nil {
		t.Fatal(err)
	}
	if meas.ExecTime <= 0 || meas.CompTime <= 0 || meas.EnergyKJ <= 0 {
		t.Fatalf("bad tight measurement %+v", meas)
	}
	// The shared allocation is the widest component (16 nodes), not 32.
	impliedNodes := meas.CompTime * 3600 / meas.ExecTime / 36
	if impliedNodes < 15.9 || impliedNodes > 16.1 {
		t.Fatalf("tight allocation implies %v nodes, want 16", impliedNodes)
	}
	// No pipelining: per-step times add up, so tight exec must exceed the
	// sum-free loose makespan for this balanced configuration.
	loose, err := w.RunInSitu()
	if err != nil {
		t.Fatal(err)
	}
	if meas.ExecTime <= loose.ExecTime {
		t.Fatalf("balanced LV: tight %v should lose to pipelined loose %v", meas.ExecTime, loose.ExecTime)
	}
}

func TestTightlyCoupledAtLeastSumOfCompute(t *testing.T) {
	m := cluster.Default()
	b := GP(m)
	w, err := b.Build(cfgspace.Config{175, 13, 24, 23})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunTightlyCoupled()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range w.Components {
		sum += c.StepTime(0) * float64(c.Steps)
	}
	if meas.ExecTime < sum {
		t.Fatalf("tight exec %v below the serialized compute floor %v", meas.ExecTime, sum)
	}
}

func TestTightlyCoupledEnergyBounds(t *testing.T) {
	m := cluster.Default()
	b := HS(m)
	w, err := b.Build(cfgspace.Config{13, 17, 14, 4, 29, 19, 3})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := w.RunTightlyCoupled()
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, c := range w.Components {
		if n := c.Nodes(); n > nodes {
			nodes = n
		}
	}
	floor := m.IdleWatts * float64(nodes) * meas.ExecTime / 1000
	ceil := m.ActiveWatts * float64(nodes) * meas.ExecTime / 1000
	if meas.EnergyKJ < floor || meas.EnergyKJ > ceil*1.0001 {
		t.Fatalf("tight energy %v outside [%v, %v]", meas.EnergyKJ, floor, ceil)
	}
}

func TestTightlyCoupledValidates(t *testing.T) {
	m := cluster.Default()
	lammps := apps.NewLAMMPS(m, cfgspace.Config{64, 32, 1})
	bad := apps.NewStageWrite(m, cfgspace.Config{8, 8}, 7)
	w := &Workflow{Name: "x", Machine: m, Components: []*apps.Component{lammps, bad}, Edges: []Edge{{0, 1}}}
	if _, err := w.RunTightlyCoupled(); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("validation missing: %v", err)
	}
}
