package perf

import (
	"time"

	"ceal/internal/tuner"
)

// inProc is the paper and bigpool workloads: the round's jobs tuned one
// after another in this process (closed loop, one client). A traced bigpool
// run adds a serial baseline to its untraced rounds: the first job again at
// Workers=1, outside the throughput window, for par_speedup and the
// cross-width identity check. The end-to-end run spends that time on jobs.
type inProc struct {
	o    Options
	chk  *checker
	jobs []job
	// serial is the Workers=1 twin of jobs[0] (traced bigpool runs only).
	serial *job

	first   [][32]byte      // each job's result identity, from its first run
	results []*tuner.Result // each job's latest result, for the quality ratios
}

func newInProc(o Options, chk *checker) *inProc {
	w := &inProc{o: o, chk: chk}
	switch {
	case o.Workload == Paper && o.Tiny:
		w.jobs = makeJobs(o.Seed, 1, 200, 0)
	case o.Workload == Paper:
		// Pool 0: the program's default (2000).
		w.jobs = makeJobs(o.Seed, 34, 0, 0)
	case o.Tiny:
		w.jobs = makeJobs(o.Seed, 1, 2000, procs())
	default:
		// Five seeds: a bigpool job's allocation, wall time and quality
		// depend on its seed by 10-30% (a pass or two more over the pool),
		// and fifteen distinct jobs hold that to a few percent of the
		// round, where six left 10-17% between benchmark seeds.
		w.jobs = makeJobs(o.Seed, 5, 100000, procs())
	}
	if o.Workload == BigPool && o.Trace {
		s := w.jobs[0]
		s.spec.Workers = 1
		s.name += "/w1"
		w.serial = &s
	}
	w.first = make([][32]byte, len(w.jobs))
	w.results = make([]*tuner.Result, len(w.jobs))
	return w
}

func (w *inProc) jobNames() []string { return jobNames(w.jobs) }

// setup is the untimed warm-up: one job per workflow (one job on bigpool,
// where a job is seconds) grows the heap and faults in the code the first
// timed run would otherwise pay for.
func (w *inProc) setup() error {
	warm := w.jobs[:len(benchmarks)]
	if w.o.Workload == BigPool {
		warm = warm[:1]
	}
	for _, j := range warm {
		if err := runLocal(j, nil, nil).err; err != nil {
			return err
		}
	}
	return nil
}

func (w *inProc) close() {}

func (w *inProc) round(tr *tracer) (round, error) {
	outs := make([]outcome, len(w.jobs))
	r := round{jobs: make([]time.Duration, len(w.jobs)), extra: map[string]float64{}}
	r.use = window(func() {
		for i, j := range w.jobs {
			outs[i] = runLocal(j, tr, w.o.wrapEval)
			r.jobs[i] = outs[i].wall
		}
	})
	var serial outcome
	if w.serial != nil && tr == nil {
		serial = runLocal(*w.serial, nil, w.o.wrapEval)
	}

	// Checks run after the window so they cost the round nothing.
	var lays []*layers
	for i, out := range outs {
		w.chk.attempt()
		if out.err != nil {
			w.chk.failf("%s: %v", w.jobs[i].name, out.err)
			continue
		}
		checkResult(w.chk, w.jobs[i].name, w.jobs[i].spec, out.bestInPool, out.res)
		w.sameAsFirst(i, w.jobs[i].name, out.res)
		w.results[i] = out.res
		if out.lay != nil {
			lays = append(lays, out.lay)
		}
	}
	if w.serial != nil && tr == nil {
		w.chk.attempt()
		if serial.err != nil {
			w.chk.failf("%s: %v", w.serial.name, serial.err)
		} else {
			// Scoring width must never change a result.
			w.sameAsFirst(0, w.serial.name, serial.res)
			r.extra["par_speedup"] = float64(serial.wall) / float64(r.jobs[0])
		}
	}
	if tr != nil {
		r.layer = layerMetrics(lays)
	}
	return r, nil
}

// sameAsFirst checks a result is byte-identical (as JSON) to the first
// result the same job produced: jobs are deterministic, whatever the
// round, the tracing or the scoring width.
func (w *inProc) sameAsFirst(i int, name string, res *tuner.Result) {
	d, err := digest(res)
	if err != nil {
		w.chk.failf("%s: %v", name, err)
		return
	}
	if w.first[i] == ([32]byte{}) {
		w.first[i] = d
	} else if w.first[i] != d {
		w.chk.failf("%s: result differs from the job's first run", name)
	}
}

func (w *inProc) finish(metrics map[string]float64) error {
	return qualityMetrics(metrics, jobSpecs(w.jobs), w.results)
}
