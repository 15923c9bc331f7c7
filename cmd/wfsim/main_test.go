package main

import (
	"strings"
	"testing"

	"ceal"
)

func TestResolveConfig(t *testing.T) {
	b := ceal.BenchmarkLV(ceal.DefaultMachine())

	cfg, err := resolveConfig(b, "561,25,1,75,14,1", "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Key() != "561,25,1,75,14,1" {
		t.Fatalf("parsed %v", cfg)
	}

	if _, err := resolveConfig(b, "", ""); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := resolveConfig(b, "1,2,three", ""); err == nil {
		t.Fatal("non-numeric config accepted")
	}
	over, err := resolveConfig(b, "1085,1,1,1085,1,1", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(over); err == nil {
		t.Fatal("allocation-violating config accepted")
	}
	if _, err := resolveConfig(b, "", "sideways"); err == nil {
		t.Fatal("bad expert objective accepted")
	}

	exp, err := resolveConfig(b, "", "comp")
	if err != nil || exp.Key() != b.ExpertComp.Key() {
		t.Fatalf("expert comp = %v, %v", exp, err)
	}

	// -mode solo: a workflow configuration is sliced, the component's own
	// is taken as is, and neither may leave the component's space.
	solo := func(b *ceal.Benchmark, j int, in string) (ceal.Config, error) {
		cfg, err := resolveConfig(b, in, "")
		if err != nil {
			t.Fatal(err)
		}
		return soloConfig(b, j, cfg)
	}
	for _, in := range []string{"561,25,1,75,14,1", "75,14,1"} {
		if sub, err := solo(b, 1, in); err != nil || sub.Key() != "75,14,1" {
			t.Fatalf("solo voro from %q = %v, %v", in, sub, err)
		}
	}
	for _, in := range []string{"1085,1,1", "75,14,9", "75,14", "1085,1,1,1085,1,1"} {
		if sub, err := solo(b, 1, in); err == nil {
			t.Fatalf("solo voro accepted %q as %v", in, sub)
		}
	}
	gp := ceal.BenchmarkGP(ceal.DefaultMachine())
	if sub, err := solo(gp, 2, "175,13,24,23"); err != nil || len(sub) != 0 {
		t.Fatalf("unconfigurable gplot from a workflow configuration = %v, %v", sub, err)
	}
	if _, err := solo(gp, 2, "1,1"); err == nil {
		t.Fatal("unconfigurable gplot accepted a configuration of its own")
	}
}

func TestComponentNames(t *testing.T) {
	b := ceal.BenchmarkGP(ceal.DefaultMachine())
	names := componentNames(b)
	for _, want := range []string{"grayscott", "pdfcalc", "gplot", "pplot"} {
		if !strings.Contains(names, want) {
			t.Fatalf("componentNames = %q missing %s", names, want)
		}
	}
}
