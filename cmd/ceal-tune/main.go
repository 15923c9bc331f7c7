// Command ceal-tune auto-tunes a benchmark workflow on the cluster
// simulator with a chosen algorithm and measurement budget, then reports
// the recommended configuration against the expert recommendation.
//
// Usage:
//
//	ceal-tune -workflow LV -objective comp -budget 50
//	ceal-tune -workflow HS -objective exec -algorithm al -budget 100
//	ceal-tune -workflow GP -budget 50 -workers 8 -timeout 2m
//	ceal-tune -workflow LV -continuous -drift step -probes 60
//
// With -continuous, the run stays alive after convergence: the incumbent is
// probed along a virtual clock while the platform follows the -drift load
// profile, and confirmed drift triggers bounded, warm-started re-exploration
// (online retuning). The summary reports retunes, reconvergence times, and
// time-weighted cumulative regret against the pool oracle.
//
// With -history <dir>, the run is recorded in a tuning-history database (a
// directory of append-only segment files, shareable with ceal-serve); -warm
// seeds it from prior runs in that database (same-family workflow samples,
// shared-component samples), and -resume <run-id> replays an interrupted
// tune run from its measurement checkpoint instead of re-measuring.
//
// SIGINT/SIGTERM cancel the run; tuning aborts within one measurement
// batch (and is checkpointed when -history is set).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ceal"
	"ceal/internal/dispatch"
	"ceal/internal/histdb"
	"ceal/internal/profiling"
	"ceal/internal/tuner/events"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ceal-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wfName     = fs.String("workflow", "LV", "benchmark workflow: LV, HS, or GP")
		objName    = fs.String("objective", "comp", "optimization objective: exec, comp, or energy")
		algName    = fs.String("algorithm", "ceal", "rs, al, geist, alph, ceal, bo, hyboost, or knnselect")
		budget     = fs.Int("budget", 50, "measurement budget in workflow-run equivalents")
		pool       = fs.Int("pool", 2000, "candidate pool size")
		seed       = fs.Uint64("seed", 1, "random seed")
		workers    = fs.Int("workers", 1, "parallel measurement and pool-scoring width")
		timeout    = fs.Duration("timeout", 0, "abort tuning after this long (0: no limit)")
		trace      = fs.String("trace", "", "stream run events as JSONL to this file (\"-\" for stdout)")
		history    = fs.String("history", "", "tuning-history DB (segment directory, created if missing): record this run; enables -warm and -resume")
		warm       = fs.Bool("warm", false, "warm-start from prior runs in the -history DB")
		resume     = fs.String("resume", "", "resume an interrupted run from the -history DB by run ID")
		continuous = fs.Bool("continuous", false, "keep the run alive after convergence: monitor the incumbent under -drift and retune online on confirmed drift")
		driftName  = fs.String("drift", "none", "platform drift profile for -continuous: none, step, ramp, periodic, neighbor, or nodeslow")
		probes     = fs.Int("probes", histdb.DefaultProbes, "monitoring probes after convergence (with -continuous)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocs/heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ceal-tune: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ceal-tune:", err)
		return 1
	}

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return fail(err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(stderr, "ceal-tune:", err)
		}
	}()

	var db *histdb.FileStore
	if *history != "" {
		var err error
		if db, err = histdb.OpenFileStore(*history); err != nil {
			return fail(err)
		}
	}
	if *warm && db == nil {
		return fail(fmt.Errorf("-warm requires -history <path>"))
	}
	var resumed *histdb.RunRecord
	if *resume != "" {
		if db == nil {
			return fail(fmt.Errorf("-resume requires -history <path>"))
		}
		rec, ok := db.Get(*resume)
		if !ok {
			return fail(fmt.Errorf("resume: run %q not found in %s", *resume, *history))
		}
		if rec.State == histdb.StateDone {
			return fail(fmt.Errorf("resume: run %s already completed; its result is recorded in %s", *resume, *history))
		}
		n := rec.Spec.Normalize()
		if n.Mode == histdb.ModeContinuous {
			// A store shared with ceal-serve can hold continuous runs; the
			// platform history they observed cannot be replayed from a
			// measurement checkpoint (the service refuses them the same way).
			return fail(fmt.Errorf("resume: run %s is a continuous-mode run, which is not resumable; start a fresh one with -continuous", *resume))
		}
		resumed = rec
		// The stored spec overrides the flags: a resume replays the
		// original run, it does not start a new one.
		*wfName, *objName, *algName = n.Benchmark, n.Objective, n.Algorithm
		*budget, *pool, *seed = n.Budget, n.Pool, n.Seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	m := ceal.DefaultMachine()
	b, err := ceal.BenchmarkByName(m, strings.ToUpper(*wfName))
	if err != nil {
		return fail(err)
	}
	obj, expert, unit := ceal.CompTime, b.ExpertComp, "core-hours"
	switch *objName {
	case "comp":
	case "exec":
		obj, expert, unit = ceal.ExecTime, b.ExpertExec, "s"
	case "energy":
		// The paper's expert recommendation targets computer time; it doubles
		// as the energy reference point (§4 lists energy as an aggregate
		// metric over the same allocation).
		obj, expert, unit = ceal.Energy, b.ExpertComp, "kJ"
	default:
		return fail(fmt.Errorf("unknown objective %q (want exec, comp, or energy)", *objName))
	}
	alg, err := ceal.AlgorithmByName(*algName)
	if err != nil {
		return fail(err)
	}

	if *continuous {
		if *warm || *resume != "" || *history != "" {
			return fail(fmt.Errorf("-continuous is incompatible with -warm/-resume/-history (continuous runs warm-start internally and are not replayable)"))
		}
		return runContinuous(ctx, stdout, b, obj, alg, *driftName,
			*budget, *pool, *probes, *seed, *workers, *trace, fail)
	}

	fmt.Fprintf(stdout, "tuning %s for %s with %s (budget %d runs, pool %d, %d workers)\n",
		b.Name, obj, alg.Name(), *budget, *pool, *workers)
	problem := ceal.NewProblem(b, obj, *pool, *seed)
	problem.Runner = dispatch.NewRunner(*workers)
	problem.Workers = *workers
	problem.Ctx = ctx

	spec := histdb.Spec{
		Benchmark: b.Name, Algorithm: strings.ToLower(*algName), Objective: *objName,
		Budget: *budget, Pool: *pool, Seed: *seed, Workers: *workers, WarmStart: *warm,
	}.Normalize()
	if resumed != nil {
		// Replay the interrupted run: identical warm inputs (pinned in the
		// record) plus the persisted measurement checkpoint served from
		// cache — the deterministic algorithm re-derives the same result
		// without re-measuring.
		problem.Warm = resumed.Warm
		if len(resumed.Checkpoint) > 0 {
			problem.Collector().Preload(resumed.Checkpoint)
		}
		fmt.Fprintf(stdout, "resuming run %s from %d checkpointed measurements\n", resumed.ID, len(resumed.Checkpoint))
	} else if *warm {
		if w := ceal.WarmFromHistory(db, spec); w != nil {
			problem.Warm = w
			nComp := 0
			for _, cs := range w.ComponentSamples {
				nComp += len(cs)
			}
			fmt.Fprintf(stdout, "warm start: %d prior workflow samples, %d prior component samples from %s\n",
				len(w.Samples), nComp, *history)
		} else {
			fmt.Fprintf(stdout, "warm start: no applicable prior runs in %s; starting cold\n", *history)
		}
	}

	// With a history DB attached, the run is recorded through its lifecycle
	// and checkpointed after every measured batch, so even a hard kill
	// leaves a resumable record behind.
	var rec *histdb.RunRecord
	if db != nil {
		if resumed != nil {
			rec = resumed
			rec.State = histdb.StateRunning
			rec.Error = ""
			rec.Result = nil
			rec.Trace = nil
			rec.StartedAt = time.Now()
			rec.FinishedAt = time.Time{}
		} else {
			names := make([]string, len(b.Components))
			for i, c := range b.Components {
				names[i] = c.Name
			}
			now := time.Now()
			rec = &histdb.RunRecord{
				ID: histdb.NextID(db), Spec: spec, SpecKey: spec.Key(),
				State: histdb.StateRunning, Components: names,
				SubmittedAt: now, StartedAt: now,
				Warm: problem.Warm,
			}
		}
		if err := db.Save(rec); err != nil {
			return fail(err)
		}
		problem.Observer = ceal.MultiObserver(problem.Observer,
			&checkpointer{db: db, rec: rec, col: problem.Collector()})
	}
	traceObs, closeTrace, err := openTrace(*trace, stdout)
	if err != nil {
		return fail(err)
	}
	problem.Observer = ceal.MultiObserver(problem.Observer, traceObs)
	start := time.Now()
	res, err := alg.Tune(problem, *budget)
	if err != nil {
		closeTrace(false)
		if rec != nil {
			rec.State = histdb.StateFailed
			if ctx.Err() != nil {
				rec.State = histdb.StateCancelled
			}
			rec.Error = err.Error()
			rec.FinishedAt = time.Now()
			rec.Checkpoint = problem.Collector().Snapshot()
			if serr := db.Save(rec); serr == nil {
				fmt.Fprintf(stderr, "ceal-tune: run %s checkpointed with %d measurements; resume with -history %s -resume %s\n",
					rec.ID, len(rec.Checkpoint), *history, rec.ID)
			}
			db.Close()
		}
		return fail(err)
	}
	if rec != nil {
		rec.State = histdb.StateDone
		rec.Result = res
		rec.Checkpoint = nil
		rec.FinishedAt = time.Now()
		if err := db.Save(rec); err != nil {
			return fail(fmt.Errorf("history save: %w", err))
		}
		if err := db.Close(); err != nil {
			return fail(fmt.Errorf("history close: %w", err))
		}
		fmt.Fprintf(stdout, "recorded run %s in %s\n", rec.ID, *history)
	}
	elapsed := time.Since(start)
	if err := closeTrace(true); err != nil {
		return fail(err)
	}

	// Verify the recommendation and the expert config through the problem's
	// collector: res.Best was already measured during tuning, so it comes
	// back as a cache hit rather than a fresh simulation.
	verify, err := problem.Collector().MeasureWorkflows(ctx, []ceal.Config{res.Best, expert})
	if err != nil {
		return fail(err)
	}
	tuned, expertVal := verify[0].Value, verify[1].Value

	fmt.Fprintf(stdout, "\nrecommended configuration %v\n", res.Best)
	fmt.Fprintf(stdout, "  measured %s: %.4g %s\n", obj, tuned, unit)
	fmt.Fprintf(stdout, "  expert config %v: %.4g %s\n", expert, expertVal, unit)
	if expertVal > tuned {
		fmt.Fprintf(stdout, "  improvement over expert: %.1f%%\n", (1-tuned/expertVal)*100)
		fmt.Fprintf(stdout, "  collection cost: %.4g %s -> recoups after %.0f tuned runs\n",
			res.CollectionCost, unit, res.CollectionCost/(expertVal-tuned))
	} else {
		fmt.Fprintf(stdout, "  no improvement over the expert configuration\n")
	}
	fmt.Fprintf(stdout, "  workflow samples measured: %d (tuner wall time %v)\n", len(res.Samples), elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  collector: %s\n", problem.Collector().Stats())
	if res.SwitchIteration >= 0 {
		fmt.Fprintf(stdout, "  CEAL switched to the high-fidelity model at iteration %d\n", res.SwitchIteration)
	}
	printImportance(stdout, problem.FeatureNames, res.Importance)
	return 0
}

// runContinuous drives the online-retuning mode: tune once through the
// drift environment, then monitor the incumbent at a probe cadence and
// retune (bounded, warm-started) on confirmed platform drift.
func runContinuous(ctx context.Context, stdout io.Writer, b *ceal.Benchmark, obj ceal.Objective,
	alg ceal.Algorithm, profile string, budget, pool, probes int, seed uint64, workers int,
	trace string, fail func(error) int) int {
	c, err := ceal.NewContinuous(b, obj, pool, seed, profile, workers)
	if err != nil {
		return fail(err)
	}
	c.Algorithm = alg
	c.Ctx = ctx
	c.Opts.Probes = probes

	traceObs, closeTrace, err := openTrace(trace, stdout)
	if err != nil {
		return fail(err)
	}
	c.Observer = traceObs

	fmt.Fprintf(stdout, "continuous tuning %s for %s with %s under drift profile %q (budget %d runs, pool %d, %d probes, %d workers)\n",
		b.Name, obj, alg.Name(), profile, budget, pool, probes, workers)
	start := time.Now()
	res, err := c.Run(budget)
	if err != nil {
		closeTrace(false)
		return fail(err)
	}
	if err := closeTrace(true); err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "\ninitial incumbent %v\n", res.Initial.Best)
	fmt.Fprintf(stdout, "monitoring: %d probes to virtual time %.1f units, %d retunes, %d switchbacks\n",
		res.Probes, res.FinalClock, res.Retunes, res.Switchbacks)
	for i, ep := range res.Epochs {
		fmt.Fprintf(stdout, "  epoch %d: drift confirmed at probe %d, reconverged after %.1f units (%d measurements, value %.4g)\n",
			i+1, ep.Probe, ep.ClockEnd-ep.ClockStart, ep.Measurements, ep.BestValue)
	}
	fmt.Fprintf(stdout, "cumulative regret %.4g (metric x time units), re-exploration cost %.4g\n",
		res.CumulativeRegret, res.ReexploreCost)
	fmt.Fprintf(stdout, "final incumbent %v\n", res.Incumbent)
	fmt.Fprintf(stdout, "  measured %s at final condition: %.4g\n", obj, res.IncumbentValue)
	fmt.Fprintf(stdout, "  wall time %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// openTrace opens the -trace sink: a JSONL event writer over stdout ("-")
// or a fresh file; an empty path yields a nil observer. done closes the
// sink once the run is over; after a successful run (ok) it also fails on a
// broken sink (full disk, closed pipe) — a silently truncated trace is
// worse than no trace — and announces the file.
func openTrace(path string, stdout io.Writer) (obs ceal.Observer, done func(ok bool) error, err error) {
	if path == "" {
		return nil, func(bool) error { return nil }, nil
	}
	w := stdout
	var file *os.File
	if path != "-" {
		if file, err = os.Create(path); err != nil {
			return nil, nil, err
		}
		w = file
	}
	sink := ceal.NewJSONLWriter(w)
	return sink, func(ok bool) error {
		var cerr error
		if file != nil {
			cerr = file.Close()
		}
		switch {
		case !ok:
		case sink.Err() != nil:
			return fmt.Errorf("trace write: %w", sink.Err())
		case cerr != nil:
			return fmt.Errorf("trace close: %w", cerr)
		case file != nil:
			fmt.Fprintf(stdout, "run-event trace written to %s\n", path)
		}
		return nil
	}, nil
}

// checkpointer persists the run's measurement progress into the history DB
// after every measured batch, keeping the record resumable across crashes.
type checkpointer struct {
	db  *histdb.FileStore
	rec *histdb.RunRecord
	col *ceal.Collector
}

func (c *checkpointer) OnEvent(e ceal.Event) {
	if _, ok := e.(*events.BatchMeasured); !ok {
		return
	}
	c.rec.Checkpoint = c.col.Snapshot()
	_ = c.db.Save(c.rec)
}

// printImportance lists the surrogate's three most influential features.
func printImportance(w io.Writer, names []string, imp []float64) {
	if len(imp) == 0 || len(names) != len(imp) {
		return
	}
	type fi struct {
		name string
		v    float64
	}
	all := make([]fi, len(imp))
	for i := range imp {
		all[i] = fi{names[i], imp[i]}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v > all[b].v })
	fmt.Fprintf(w, "  most influential parameters (surrogate gain):")
	for i := 0; i < 3 && i < len(all); i++ {
		fmt.Fprintf(w, " %s %.0f%%", all[i].name, all[i].v*100)
	}
	fmt.Fprintln(w)
}
