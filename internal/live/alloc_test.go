//go:build !race

package live

import (
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/workflow"
)

// TestCoresAllocs: the tuner asks every component for its reserved cores
// once per distinct sub-configuration of the pool; the answer comes from
// the declared layout, not from a component built to be thrown away.
func TestCoresAllocs(t *testing.T) {
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for j, info := range Components(b) {
			sub := b.Sub(b.ExpertExec, j)
			if allocs := testing.AllocsPerRun(100, func() { info.Cores(sub) }); allocs != 0 {
				t.Errorf("%s/%s: Cores allocates %.0f times per call, want 0", b.Name, info.Name, allocs)
			}
		}
	}
}
