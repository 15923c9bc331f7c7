// Package perf is the repository's performance ledger: four named
// workloads (paper, bigpool, serve, store) driven from one process through
// the program's public seams, reporting end-to-end numbers from untraced
// rounds and a per-layer budget from traced rounds. cmd/ceal-bench is its
// command line; BENCHMARK.json at the repository root declares the same
// workloads and metrics to the benchmark driver.
//
// Layers are measured from outside: the traced round wraps the seams that
// already exist (tuner.Problem.Eval/.Dispatcher/.Features/.Observer,
// service.Options.Store/.Build, dispatch.Remote.Client, http.Handler
// middleware around worker.NewServer) and calls xgb, collector, histdb and
// live directly. Nothing inside the program is instrumented.
package perf

// Workload names, in the fixed order the ledger runs them.
const (
	Paper   = "paper"
	BigPool = "bigpool"
	Serve   = "serve"
	Store   = "store"
)

// Workload is one set of inputs the benchmark runs and the reason it exists.
type Workload struct {
	Name string
	Why  string
}

// Workloads is the normative workload list (BENCHMARK.json mirrors it).
var Workloads = []Workload{
	{Paper, "The paper's own scenario: LV/HS/GP x CEAL, pool 2000, budget 50, in-process. Simulator, fit and select each hold 25-45% of a run; predict-only or transport-only changes must not move it."},
	{BigPool, "15 jobs on a 100k-config pool, 2 scoring workers: predict+select is ~90% of a run and features stream from memory, so predict, featurize and sampling changes show; measurement-plane changes must not."},
	{Serve, "The paper jobs through ceal-serve's handler, a FileStore and 2 remote workers, 2 closed-loop clients, then resubmitted: the delta to paper is service + transport + worker + store + hub."},
	{Store, "1000 paper-scale run records through append, replay, point and family lookups, warm-start assembly, upsert and compaction; tuner and predict changes must not move it."},
}

// Metric declares one ledger metric: its unit, direction, the workloads it
// applies to, and (when gated) the share of the baseline median by which
// it may worsen before compare calls it a regression.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the regression threshold as a share of the baseline median;
	// 0 marks an informational metric compare only displays.
	Bound float64
	// E2E marks the end-to-end metrics every workload reports — the
	// BENCHMARK.json end_to_end list. All other metrics come from the
	// traced run and make up its per_layer list.
	E2E bool
	// On lists the workloads the metric applies to; the driver-facing
	// output reports 0 for a per-layer metric elsewhere (the layer takes
	// no part in that workload), the ledger leaves the cell out.
	On []string
}

var (
	onAll    = []string{Paper, BigPool, Serve, Store}
	onTuned  = []string{Paper, BigPool, Serve}
	onInProc = []string{Paper, BigPool}
	onServe  = []string{Serve}
	onStore  = []string{Store}
)

// Catalog is every metric the ledger emits, in print order. The
// end-to-end block is what a user of the system sees; a "run" is one
// tuning job on paper, bigpool and serve and one full store lifecycle
// (round) on store.
var Catalog = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, E2E: true, On: onAll},
	{Name: "run_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, E2E: true, On: onAll},
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, E2E: true, On: onAll},
	{Name: "cpu_s_per_run", Unit: "s", Better: "lower", Bound: 0.25, E2E: true, On: onAll},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower", Bound: 0.25, E2E: true, On: onAll},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, E2E: true, On: onAll},
	{Name: "tuned_over_expert", Unit: "ratio", Better: "lower", Bound: 0.25, E2E: true, On: onAll},
	{Name: "collect_cost_over_expert", Unit: "expert-runs", Better: "lower", Bound: 0.25, E2E: true, On: onAll},

	// Workload-specific headline numbers. They are end-to-end in spirit but
	// cannot be reported by every workload, so the driver sees them in the
	// per-layer list; compare still gates them with the bounds below (a
	// ratio inside one run holds 10%, timings need the same 25% as above).
	// run_p90_ms is here because a p90 needs ten samples beyond it: the 102
	// jobs of paper and serve have them, bigpool's 15 and store's handful of
	// rounds do not.
	{Name: "run_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{Paper, Serve}},
	{Name: "par_speedup", Unit: "x", Better: "higher", Bound: 0.10, On: []string{BigPool}},
	{Name: "dedup_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onServe},
	{Name: "store_append_krec_s", Unit: "krec/s", Better: "higher", Bound: 0.25, On: onStore},
	{Name: "store_open_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onStore},
	{Name: "store_lookup_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: onStore},

	{Name: "cfgspace.sample.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "cfgspace.sample.configs", Unit: "count", Better: "lower", On: onTuned},

	{Name: "workflow.eval.ms", Unit: "ms", Better: "lower", On: onInProc},
	{Name: "workflow.wf_calls", Unit: "count", Better: "lower", On: onInProc},
	{Name: "workflow.comp_calls", Unit: "count", Better: "lower", On: onInProc},
	{Name: "workflow.wf_us_per_call", Unit: "us", Better: "lower", On: onInProc},
	{Name: "workflow.comp_us_per_call", Unit: "us", Better: "lower", On: onInProc},

	{Name: "collector.self.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "collector.hit.us_per_cfg", Unit: "us", Better: "lower", On: onInProc},
	{Name: "collector.hits", Unit: "count", Better: "higher", On: onTuned},
	{Name: "collector.misses", Unit: "count", Better: "lower", On: onTuned},
	{Name: "collector.coalesced", Unit: "count", Better: "higher", On: onTuned},
	{Name: "collector.reuse_ratio", Unit: "ratio", Better: "higher", On: onTuned},
	{Name: "collector.peak_in_flight", Unit: "count", Better: "higher", On: onTuned},

	{Name: "dispatch.span.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "dispatch.self.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "dispatch.wire.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "dispatch.batches", Unit: "count", Better: "lower", On: onTuned},
	{Name: "dispatch.items", Unit: "count", Better: "lower", On: onTuned},
	{Name: "dispatch.retries", Unit: "count", Better: "lower", On: onTuned},
	{Name: "dispatch.req_bytes", Unit: "B", Better: "lower", On: onServe},
	{Name: "dispatch.resp_bytes", Unit: "B", Better: "lower", On: onServe},

	{Name: "worker.handle.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "worker.requests", Unit: "count", Better: "lower", On: onServe},
	{Name: "worker.items", Unit: "count", Better: "lower", On: onServe},

	{Name: "score.featurize.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "score.featurize.calls", Unit: "count", Better: "lower", On: onTuned},

	{Name: "xgb.fit.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "xgb.fit.count", Unit: "count", Better: "lower", On: onTuned},
	{Name: "xgb.fit.rounds", Unit: "count", Better: "lower", On: onTuned},
	{Name: "xgb.predict.float_ns_per_row", Unit: "ns", Better: "lower", On: onInProc},
	{Name: "xgb.predict.quant_ns_per_row", Unit: "ns", Better: "lower", On: onInProc},
	{Name: "xgb.predict.rows", Unit: "count", Better: "lower", On: onInProc},

	{Name: "acm.fit.ms", Unit: "ms", Better: "lower", On: onTuned},

	{Name: "tuner.bootstrap.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "tuner.select.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "tuner.final_score.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "tuner.other.ms", Unit: "ms", Better: "lower", On: onTuned},
	{Name: "tuner.iterations", Unit: "count", Better: "lower", On: onTuned},
	{Name: "tuner.measured", Unit: "count", Better: "lower", On: onTuned},

	{Name: "events.count", Unit: "count", Better: "lower", On: onTuned},
	{Name: "events.bytes", Unit: "B", Better: "lower", On: onTuned},

	{Name: "service.submit.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "service.queue_wait.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "service.run.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "service.post_run.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "service.record.bytes", Unit: "B", Better: "lower", On: onServe},
	{Name: "service.stream.bytes", Unit: "B", Better: "lower", On: onServe},
	{Name: "service.rejected", Unit: "count", Better: "lower", On: onServe},

	{Name: "histdb.save.count", Unit: "count", Better: "lower", On: onServe},
	{Name: "histdb.save.ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "histdb.log_bytes_per_run", Unit: "B", Better: "lower", On: onServe},
	{Name: "histdb.write_amp", Unit: "ratio", Better: "lower", On: onServe},
	{Name: "histdb.lookup.us", Unit: "us", Better: "lower", On: onServe},
	{Name: "histdb.append.us_per_rec", Unit: "us", Better: "lower", On: onStore},
	{Name: "histdb.replay.us_per_rec", Unit: "us", Better: "lower", On: onStore},
	{Name: "histdb.replay.mb_per_s", Unit: "MB/s", Better: "higher", On: onStore},
	{Name: "histdb.family.us", Unit: "us", Better: "lower", On: onStore},
	{Name: "histdb.warm_assemble.ms", Unit: "ms", Better: "lower", On: onStore},
	{Name: "histdb.compact.ms", Unit: "ms", Better: "lower", On: onStore},
	{Name: "histdb.segments", Unit: "count", Better: "lower", On: onStore},

	{Name: "go.allocs_per_run", Unit: "count", Better: "lower", On: onAll},
	{Name: "go.gc.cycles", Unit: "count", Better: "lower", On: onAll},
	{Name: "go.gc.pause_ms", Unit: "ms", Better: "lower", On: onAll},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower", On: onTuned},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", On: onTuned},

	// The reference clock's reading: as measured, not rescaled.
	{Name: "ref.kernel_ms", Unit: "ms", Better: "lower", On: onAll},
	{Name: "ref.speed", Unit: "x", Better: "higher", On: onAll},
}

// FailRatio is the ledger's failed/attempted cell. It must be 0, so it
// carries no relative bound and is not in Catalog: the driver reads the
// same fact from the result line's "failed" and "attempted".
const FailRatio = "fail_ratio"

// AppliesTo reports whether the metric is defined on the workload.
func (m Metric) AppliesTo(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// MetricByName looks a metric up in the catalog.
func MetricByName(name string) (Metric, bool) {
	for _, m := range Catalog {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
