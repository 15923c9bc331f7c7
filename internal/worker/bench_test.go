package worker

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/live"
	"ceal/internal/workflow"
)

// benchBatch builds a width-item workflow measurement batch over the LV
// pool, plus the evaluator the local dispatcher would use for it.
func benchBatch(b *testing.B, width int) ([]dispatch.Item, *live.Evaluator) {
	b.Helper()
	wf, err := workflow.ByName(cluster.Default(), testBenchmark)
	if err != nil {
		b.Fatal(err)
	}
	p := live.NewProblem(wf, workflow.CompTime, width, testSeed)
	items := make([]dispatch.Item, width)
	for i := range items {
		items[i] = dispatch.Item{Seq: i, Kind: dispatch.KindWorkflow, Cfg: p.Pool[i]}
	}
	return items, &live.Evaluator{Bench: wf, Obj: workflow.CompTime, Seed: testSeed}
}

// BenchmarkDispatchBatch prices one 64-configuration measurement batch
// through each dispatcher: the in-process path (serial and on a 4-worker
// pool) against remote fan-out over 1, 2 and 4 ceal-worker daemons.
// The spread between local and remote-1 is the HTTP round trip plus JSON
// framing; the spread across worker counts is the shard fan-out.
func BenchmarkDispatchBatch(b *testing.B) {
	const width = 64
	batch, ev := benchBatch(b, width)
	ctx := context.Background()

	run := func(b *testing.B, d dispatch.Dispatcher) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			ms, err := d.Dispatch(ctx, batch)
			if err != nil {
				b.Fatal(err)
			}
			if len(ms) != width {
				b.Fatalf("got %d measurements, want %d", len(ms), width)
			}
		}
	}

	b.Run("local", func(b *testing.B) {
		run(b, dispatch.NewLocal(ev, nil))
	})
	b.Run("local-par4", func(b *testing.B) {
		run(b, dispatch.NewLocal(ev, dispatch.NewRunner(4)))
	})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("remote-%d", n), func(b *testing.B) {
			urls := make([]string, n)
			for i := range urls {
				ts := httptest.NewServer(NewServer(1))
				defer ts.Close()
				urls[i] = ts.URL
			}
			run(b, dispatch.NewRemote(urls, testJob()))
		})
	}
}

// BenchmarkTune prices the full reference tuning run (LV, ceal, budget 12)
// end to end: the classic in-process path against remote dispatch over two
// worker daemons. Results are byte-identical (the worker_test acceptance);
// this measures what that substitution costs in wall clock.
func BenchmarkTune(b *testing.B) {
	wf, err := workflow.ByName(cluster.Default(), testBenchmark)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := live.AlgorithmByName("ceal")
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, d dispatch.Dispatcher) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			p := live.NewProblem(wf, workflow.CompTime, testPool, testSeed)
			p.Dispatcher = d
			res, err := alg.Tune(p, testBudget)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := json.Marshal(res); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("local", func(b *testing.B) { run(b, nil) })
	b.Run("remote-2", func(b *testing.B) {
		w1 := httptest.NewServer(NewServer(1))
		defer w1.Close()
		w2 := httptest.NewServer(NewServer(1))
		defer w2.Close()
		run(b, dispatch.NewRemote([]string{w1.URL, w2.URL}, testJob()))
	})
}
