package perf

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ceal/internal/collector"
)

// Options selects one workload run.
type Options struct {
	Workload string
	// Seed offsets every job seed; the program under test only ever sees
	// the specs generated from it.
	Seed uint64
	// Seconds is the measuring budget: rounds repeat until it is spent
	// (always at least minRounds).
	Seconds float64
	// Trace alternates untraced and traced rounds and reports the
	// per-layer metrics; without it every round is untraced and the
	// end-to-end metrics are reported.
	Trace bool
	// Tiny shrinks every workload to smoke-test size.
	Tiny bool
	// Spans, when set with Trace, receives the traced rounds' spans as
	// JSON lines at exit.
	Spans string

	// wrapEval, when set, replaces every in-process job's evaluator — the
	// smoke test's failure injection.
	wrapEval func(collector.Evaluator) collector.Evaluator
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// JobStat is one job's wall time across rounds, so a noisy round shows
// instead of being averaged in.
type JobStat struct {
	Job      string  `json:"job"`
	MinMS    float64 `json:"min_ms"`
	MedianMS float64 `json:"median_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// Report is the outcome of one workload run.
type Report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Rounds    int              `json:"rounds"`
	Jobs      int              `json:"jobs"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	// RoundS is each untraced round's window in seconds, in run order.
	RoundS []float64 `json:"round_s"`
	// TraceSumPct is the share of the traced wall the per-layer self times
	// (the unattributed remainder included) add up to.
	TraceSumPct float64   `json:"trace_sum_pct,omitempty"`
	PerJob      []JobStat `json:"per_job,omitempty"`
}

// Correct reports whether every output check passed.
func (r *Report) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// checker counts attempted operations and failed checks.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) attempt() { c.attempted++ }

func (c *checker) failf(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// usage is the resource delta over one timed window.
type usage struct {
	wall     time.Duration
	cpu      float64 // user+sys seconds
	alloc    uint64  // bytes allocated
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window runs fn and returns what it consumed.
func window(fn func()) usage {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	k0 := refClockCPU.Load()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return usage{
		wall:     wall,
		cpu:      c1 - c0 - time.Duration(refClockCPU.Load()-k0).Seconds(),
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// round is what one pass over a workload's jobs observed.
type round struct {
	// use covers the throughput window: the jobs, not the checks.
	use usage
	// jobs holds each job's wall time in the workload's fixed job order.
	jobs []time.Duration
	// extra carries workload-specific per-round numbers by metric name.
	extra map[string]float64
	// layer carries a traced round's per-layer numbers by metric name.
	layer map[string]float64
}

// workload is the part of a benchmark scenario that differs between the
// four: what to prepare, what one round does, and what to check after.
type workload interface {
	// jobNames lists the round's jobs in their fixed order.
	jobNames() []string
	// setup prepares everything that precedes the first timed operation,
	// the untimed warm-up job included. It may be called repeatedly; each
	// call replaces the previous state.
	setup() error
	// round runs the jobs once. tr is nil for an untraced round.
	round(tr *tracer) (round, error)
	// finish runs the post-window checks and adds the workload's own
	// metrics (quality ratios) to the report.
	finish(metrics map[string]float64) error
	// close releases what setup started.
	close()
}

// Setup runs at least minSetupReps times, and up to maxSetupReps while the
// repeats together stay under setupBudget; setup_s is the median, so one
// cold first pass (page faults, heap growth) does not set the number.
const (
	minSetupReps = 3
	maxSetupReps = 7
	setupBudget  = 2 * time.Second
)

// minRounds is the fewest untraced rounds a run measures: two, so that a
// job's time is a median and not a single reading. One bigpool round is
// most of a run's budget already (its jobs are distinct instead: see
// newInProc), so bigpool measures one.
func minRounds(workload string) int {
	if workload == BigPool {
		return 1
	}
	return 2
}

// procs is the parallelism the harness allows itself and the program: two
// cores make ledgers from different hosts comparable, one is all a
// single-core host has.
func procs() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// Run executes one workload and assembles its report.
func Run(o Options) (*Report, error) {
	runtime.GOMAXPROCS(procs())
	chk := &checker{}
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	var w workload
	switch o.Workload {
	case Paper, BigPool:
		w = newInProc(o, chk)
	case Serve:
		w = newServe(o, chk, tr)
	case Store:
		w = newStore(o, chk)
	default:
		return nil, fmt.Errorf("perf: unknown workload %q", o.Workload)
	}
	defer w.close()

	clock := startRefClock()
	defer clock.halt()

	var setups []float64
	maxReps := maxSetupReps
	if o.Tiny {
		maxReps = minSetupReps
	}
	for begin := time.Now(); len(setups) < minSetupReps || (len(setups) < maxReps && time.Since(begin) < setupBudget); {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("perf: %s setup: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var plain, traced []round
	budget := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	for {
		runtime.GC()
		r, err := w.round(nil)
		if err != nil {
			return nil, fmt.Errorf("perf: %s round: %w", o.Workload, err)
		}
		plain = append(plain, r)
		lap := r.use.wall
		if tr != nil {
			runtime.GC()
			r, err := w.round(tr)
			if err != nil {
				return nil, fmt.Errorf("perf: %s traced round: %w", o.Workload, err)
			}
			traced = append(traced, r)
			lap += r.use.wall
		}
		need := minRounds(o.Workload)
		if tr != nil {
			need = 1 // one untraced + one traced round is already a pair
		}
		// Never start a lap that would end past the budget: a run's length
		// is what the driver's time limit is planned on.
		if len(plain) >= need && time.Since(start)+lap > budget {
			break
		}
	}
	rss := peakRSSMB()
	kernelMS := clock.halt()
	speed := refNominalMS / kernelMS

	metrics := map[string]float64{
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
		"ref.kernel_ms": kernelMS,
		"ref.speed":     speed,
	}
	if err := w.finish(metrics); err != nil {
		return nil, fmt.Errorf("perf: %s checks: %w", o.Workload, err)
	}
	names := w.jobNames()
	rep := &Report{
		Workload: o.Workload, Seed: o.Seed, Traced: o.Trace,
		Rounds: len(plain), Jobs: len(names),
		Metrics: map[string]Value{},
	}
	rep.RoundS = column(plain, func(r round) float64 { return r.use.wall.Seconds() })
	summarize(metrics, names, plain, traced, rep)

	rep.TraceSumPct = metrics[traceSumPct]
	for _, m := range Catalog {
		if !m.AppliesTo(o.Workload) {
			continue
		}
		v, ok := metrics[m.Name]
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			if !strings.HasPrefix(m.Name, "ref.") { // the clock's own reading stays as measured
				v = atReferenceSpeed(v, m.Unit, speed)
			}
			rep.Metrics[m.Name] = Value{v, m.Unit}
		} else if m.E2E || o.Trace {
			// An untraced run owes the end-to-end metrics, a traced run
			// every metric of the workload.
			chk.failf("metric %s missing or not finite", m.Name)
		}
	}
	rep.Attempted, rep.Failed, rep.Failures = chk.attempted, chk.failed, chk.msgs
	if tr != nil && o.Spans != "" {
		if err := tr.writeSpans(o.Spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// summarize folds the rounds into the common metrics. A job's time is its
// median over rounds and the typical run and p90 are taken across jobs; a
// workload whose round is a single job (store) takes its median across
// rounds instead.
func summarize(metrics map[string]float64, names []string, plain, traced []round, rep *Report) {
	n := float64(len(names))
	perJob := make([]float64, len(names))
	for j, name := range names {
		walls := make([]float64, len(plain))
		for r := range plain {
			walls[r] = ms(plain[r].jobs[j])
		}
		perJob[j] = median(walls)
		rep.PerJob = append(rep.PerJob, JobStat{Job: name, MinMS: quantile(walls, 0), MedianMS: perJob[j], MaxMS: quantile(walls, 1)})
	}
	if len(names) == 1 {
		samples := column(plain, func(r round) float64 { return ms(r.jobs[0]) })
		metrics["run_p50_ms"] = median(samples)
	} else {
		metrics["run_p50_ms"] = medianByWorkflow(names, perJob)
		metrics["run_p90_ms"] = quantile(perJob, 0.9)
	}
	metrics["runs_per_s"] = n / median(column(plain, func(r round) float64 { return r.use.wall.Seconds() }))
	metrics["cpu_s_per_run"] = median(column(plain, func(r round) float64 { return r.use.cpu / n }))
	metrics["alloc_mb_per_run"] = median(column(plain, func(r round) float64 { return float64(r.use.alloc) / n / (1 << 20) }))
	metrics["go.allocs_per_run"] = median(column(plain, func(r round) float64 { return float64(r.use.mallocs) / n }))
	metrics["go.gc.cycles"] = median(column(plain, func(r round) float64 { return float64(r.use.gcCycles) }))
	metrics["go.gc.pause_ms"] = median(column(plain, func(r round) float64 { return ms(r.use.gcPause) }))

	// Workload-specific and per-layer numbers: the median over the rounds
	// that reported them. Store rounds time their layers directly, traced
	// or not, so layer values are taken from both kinds.
	byName := map[string][]float64{}
	for _, r := range plain {
		for k, v := range r.extra {
			byName[k] = append(byName[k], v)
		}
		for k, v := range r.layer {
			byName[k] = append(byName[k], v)
		}
	}
	for _, r := range traced {
		for k, v := range r.layer {
			byName[k] = append(byName[k], v)
		}
	}
	for k, vals := range byName {
		metrics[k] = median(vals)
	}
	if len(traced) > 0 {
		// Job walls, not the window: a traced round's window also holds the
		// post-run probes.
		jobWall := func(r round) float64 {
			var sum time.Duration
			for _, d := range r.jobs {
				sum += d
			}
			return sum.Seconds()
		}
		metrics["trace.overhead_pct"] = (median(column(traced, jobWall))/median(column(plain, jobWall)) - 1) * 100
	}
}

// medianByWorkflow is the typical job time of a round that mixes
// workflows: the median within each workflow (the part of a job's name
// before the slash), averaged over the workflows. Job times cluster by
// workflow (LV < HS < GP), so the median of the mixture sits in the sparse
// stretch between two clusters, where a few jobs changing sides move it by
// several percent between identical rounds; inside a cluster it is steady.
func medianByWorkflow(names []string, perJob []float64) float64 {
	byFlow := map[string][]float64{}
	for i, name := range names {
		flow, _, _ := strings.Cut(name, "/")
		byFlow[flow] = append(byFlow[flow], perJob[i])
	}
	sum := 0.0
	for _, vals := range byFlow {
		sum += median(vals)
	}
	return sum / float64(len(byFlow))
}

// tempDir makes a scratch directory under the working directory (the
// benchmark may only write inside its checkout).
func tempDir(pattern string) (string, error) {
	return os.MkdirTemp(".", pattern)
}
