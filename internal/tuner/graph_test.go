package tuner

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
)

// refGraph is the reference parameter graph: for each row, n squared
// distances (self excluded by an out-of-range distance), then k selection
// passes, each taking the smallest remaining distance, ties to the lower
// index.
func refGraph(space *cfgspace.Space, pool []cfgspace.Config, k int) [][]int {
	n := len(pool)
	k = min(k, n-1)
	feats := make([][]float64, n)
	for i, cfg := range pool {
		feats[i] = space.Normalized(cfg)
	}
	graph := make([][]int, n)
	dist := make([]float64, n)
	for i := range n {
		for j := range n {
			dist[j] = sqDist(feats[i], feats[j])
		}
		dist[i] = 1e18
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		for s := range k {
			best := s
			for j := s + 1; j < n; j++ {
				vb, vj := dist[idx[best]], dist[idx[j]]
				if vj < vb || (vj == vb && idx[j] < idx[best]) {
					best = j
				}
			}
			idx[s], idx[best] = idx[best], idx[s]
		}
		graph[i] = idx[:k]
	}
	return graph
}

// latticePool draws n rows with replacement from a small integer lattice
// whose normalized coordinates are exact binary fractions: duplicate rows
// and exact distance ties are the rule, not the exception.
func latticePool(seed uint64, n int) (*cfgspace.Space, []cfgspace.Config) {
	space := &cfgspace.Space{Params: []cfgspace.Param{
		cfgspace.NewParam("a", 0, 4),
		cfgspace.NewParam("b", 0, 2),
		cfgspace.NewSteppedParam("c", 0, 8, 2),
		cfgspace.NewParam("d", 3, 3),
	}}
	rng := rand.New(rand.NewPCG(seed, 7))
	pool := make([]cfgspace.Config, n)
	for i := range pool {
		cfg := make(cfgspace.Config, len(space.Params))
		for d, p := range space.Params {
			cfg[d] = p.Value(rng.IntN(p.Count()))
		}
		pool[i] = cfg
	}
	return space, pool
}

// TestParameterGraphMatchesReference holds the insertion-ordered k-slot
// build to the reference selection, list for list and in order (label
// propagation sums neighbours in list order), at engine widths 1, 2 and 8:
// every row has min(k, n-1) neighbours and never lists itself.
func TestParameterGraphMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n, k int
	}{{1, 1, 8}, {2, 5, 8}, {3, 40, 8}, {4, 300, 8}, {5, 300, 1}, {6, 500, 20}} {
		space, pool := latticePool(tc.seed, tc.n)
		want := refGraph(space, pool, tc.k)
		for _, w := range []int{1, 2, 8} {
			got, err := parameterGraph(context.Background(), score.New(w), space, pool, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.n {
				t.Fatalf("n=%d width %d: %d rows", tc.n, w, len(got))
			}
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("n=%d k=%d width %d: row %d = %v, reference %v", tc.n, tc.k, w, i, got[i], want[i])
				}
				if len(got[i]) != min(tc.k, tc.n-1) || slices.Contains(got[i], i) {
					t.Fatalf("n=%d k=%d: row %d lists %v", tc.n, tc.k, i, got[i])
				}
			}
		}
	}
}

// countdownCtx is a context whose Err turns Canceled at its m-th call.
type countdownCtx struct {
	context.Context
	m     int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.m {
		return context.Canceled
	}
	return nil
}

// TestParameterGraphStopsOnCancel counts the build's ctx checks: once one
// reports cancellation, every worker checks at most once more (the caller's
// final check included) before the build returns context.Canceled.
func TestParameterGraphStopsOnCancel(t *testing.T) {
	space, pool := latticePool(9, 2000)
	for _, w := range []int{1, 2, 8} {
		eng := score.New(w)
		_, workers := eng.ChunkLayout(len(pool))
		for _, m := range []int64{1, 2, 50} {
			ctx := &countdownCtx{Context: context.Background(), m: m}
			g, err := parameterGraph(ctx, eng, space, pool, geistNeighbors)
			if !errors.Is(err, context.Canceled) || g != nil {
				t.Fatalf("width %d, m=%d: graph of %d rows, err %v", w, m, len(g), err)
			}
			if calls := ctx.calls.Load(); calls > m+int64(workers) {
				t.Fatalf("width %d, m=%d: %d Err calls for %d workers", w, m, calls, workers)
			}
		}
	}
}

// TestGEISTGraphDiesWithItsRun: once a GEIST run returns and its Problem and
// GEIST value are dropped, nothing the run built keeps the pool alive.
func TestGEISTGraphDiesWithItsRun(t *testing.T) {
	freed := make(chan struct{})
	func() {
		p := synthProblem(3, 120)
		runtime.SetFinalizer(&p.Pool[0], func(*cfgspace.Config) { close(freed) })
		if _, err := NewGEIST().Tune(p, 20); err != nil {
			t.Fatal(err)
		}
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the pool outlived its GEIST run")
}

// TestGEISTBuildsOneGraphPerPool: a GEIST value tuning twice over one pool
// (a session's epochs, a battery's replications) builds its graph once, and
// tunes as a fresh value would.
func TestGEISTBuildsOneGraphPerPool(t *testing.T) {
	g := NewGEIST()
	p := synthProblem(5, 120)
	if _, err := g.Tune(p, 20); err != nil {
		t.Fatal(err)
	}
	built := &g.graph[0]
	q := synthProblem(5, 120)
	q.Pool = p.Pool
	got, err := g.Tune(q, 20)
	if err != nil {
		t.Fatal(err)
	}
	if &g.graph[0] != built {
		t.Fatal("the second run over the same pool rebuilt the graph")
	}
	r := synthProblem(5, 120)
	r.Pool = p.Pool
	want, err := NewGEIST().Tune(r, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Best, want.Best) || got.CollectionCost != want.CollectionCost || !slices.Equal(got.PoolScores, want.PoolScores) {
		t.Fatalf("reused graph: best %v (cost %v), fresh %v (cost %v)", got.Best, got.CollectionCost, want.Best, want.CollectionCost)
	}
}
