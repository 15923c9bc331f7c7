package service

import (
	"strings"
	"testing"

	"ceal/internal/histdb"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	n := (JobSpec{Benchmark: " lv "}).Normalize()
	want := JobSpec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp",
		Budget: histdb.DefaultBudget, Pool: histdb.DefaultPool, Seed: 1, Workers: 1,
		Mode: "tune"}
	if n != want {
		t.Fatalf("Normalize = %+v, want %+v", n, want)
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	a := JobSpec{Benchmark: "lv", Algorithm: "CEAL", Objective: "comp", Budget: 50, Pool: 2000, Seed: 1}
	b := JobSpec{Benchmark: "LV"} // same job, spelled via defaults
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	// Workers never changes results, so it must not split the dedup key.
	c := a
	c.Workers = 8
	if c.Key() != a.Key() {
		t.Fatalf("workers changed the key: %q vs %q", c.Key(), a.Key())
	}
	d := a
	d.Seed = 2
	if d.Key() == a.Key() {
		t.Fatal("different seeds share a key")
	}
}

func TestSpecValidate(t *testing.T) {
	good := JobSpec{Benchmark: "HS", Algorithm: "rs", Objective: "exec", Budget: 10, Pool: 50}
	if err := ValidateSpec(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []JobSpec{
		{Benchmark: "XX"},
		{Benchmark: "LV", Algorithm: "gradient-descent"},
		{Benchmark: "LV", Objective: "sideways"},
		{Benchmark: "LV", Budget: -1},
		{Benchmark: "LV", Pool: -3},
		{Benchmark: "LV", Pool: 2_000_000_000},
		{Benchmark: "LV", Pool: maxPool + 1},
		{Benchmark: "LV", Budget: maxBudget + 1},
		{Benchmark: "LV", Workers: maxWorkers + 1},
		{Benchmark: "LV", Mode: "continuous", Probes: maxProbes + 1},
	} {
		if err := ValidateSpec(bad); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
	if err := ValidateSpec(JobSpec{}); err == nil {
		t.Fatal("empty benchmark accepted")
	}
	// The ceilings themselves are admissible.
	atLimit := JobSpec{Benchmark: "LV", Pool: maxPool, Budget: maxBudget, Workers: maxWorkers, Mode: "continuous", Probes: maxProbes}
	if err := ValidateSpec(atLimit); err != nil {
		t.Fatalf("spec at the limits rejected: %v", err)
	}
}

func TestSpecBuild(t *testing.T) {
	spec := JobSpec{Benchmark: "LV", Algorithm: "rs", Objective: "comp", Budget: 5, Pool: 30, Seed: 7}
	p, alg, err := BuildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "RS" {
		t.Fatalf("algorithm = %s", alg.Name())
	}
	if len(p.Pool) != 30 || p.Seed != 7 {
		t.Fatalf("pool %d seed %d", len(p.Pool), p.Seed)
	}
	if !strings.HasPrefix(p.Name, "LV/") {
		t.Fatalf("problem name %q", p.Name)
	}
	// Building twice yields the same candidate pool (spec fully determines
	// the problem).
	p2, _, err := BuildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Pool {
		if p.Pool[i].Key() != p2.Pool[i].Key() {
			t.Fatalf("pool diverged at %d: %v vs %v", i, p.Pool[i], p2.Pool[i])
		}
	}
	if _, _, err := BuildSpec(JobSpec{Benchmark: "nope"}); err == nil {
		t.Fatal("bad spec built")
	}
}
