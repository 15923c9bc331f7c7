package workflow

import (
	"testing"

	"ceal/internal/apps"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// expertSolos builds each of a benchmark's components from its
// execution-time expert configuration, as a collector measures them solo.
func expertSolos(b *Benchmark) []*apps.Component {
	comps := make([]*apps.Component, len(b.Components))
	for j, cs := range b.Components {
		var sub cfgspace.Config
		if cs.Space != nil {
			sub = b.Sub(b.ExpertExec, j)
		}
		comps[j] = cs.BuildSolo(sub)
	}
	return comps
}

// BenchmarkRunInSitu times one in-situ simulation of each benchmark's
// expert configuration: the per-call cost the ledger reports as
// workflow.wf_us_per_call.
func BenchmarkRunInSitu(bb *testing.B) {
	for _, b := range Benchmarks(cluster.Default()) {
		w, err := b.Build(b.ExpertExec)
		if err != nil {
			bb.Fatal(err)
		}
		bb.Run(b.Name, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if _, err := w.RunInSitu(); err != nil {
					bb.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunSolo times the solo simulations of every component of each
// benchmark's expert configuration, one op per component run: the
// per-call cost the ledger reports as workflow.comp_us_per_call.
func BenchmarkRunSolo(bb *testing.B) {
	for _, b := range Benchmarks(cluster.Default()) {
		comps := expertSolos(b)
		bb.Run(b.Name, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				j := i % len(comps)
				if _, err := RunSolo(b.Machine, comps[j], b.Components[j].InBytesPerStep); err != nil {
					bb.Fatal(err)
				}
			}
		})
	}
}
