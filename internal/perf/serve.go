package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ceal/internal/collector"
	"ceal/internal/histdb"
	"ceal/internal/service"
	"ceal/internal/tuner"
	"ceal/internal/worker"
)

// serveWorkload runs the paper jobs through the tuning service the way a
// deployment does: ceal-serve's HTTP handler over a FileStore, measurement
// batches fanned out to two ceal-worker daemons, two closed-loop clients.
// Every round gets a fresh store and manager; the workers live as long as
// the workload. Phase A submits every job and follows it to its record;
// phase B resubmits them all, which the service answers from the store.
type serveWorkload struct {
	o    Options
	chk  *checker
	tr   *tracer // set when the run is traced: worker middleware needs it at start-up
	jobs []job

	workers    []*httptest.Server
	workerURLs []string

	first   [][]byte        // each job's result JSON as first served
	results []*tuner.Result // each job's latest result
}

func newServe(o Options, chk *checker, tr *tracer) *serveWorkload {
	w := &serveWorkload{o: o, chk: chk, tr: tr}
	if o.Tiny {
		w.jobs = makeJobs(o.Seed, 1, 200, 0)
	} else {
		w.jobs = makeJobs(o.Seed, 34, 0, 0)
	}
	w.first = make([][]byte, len(w.jobs))
	w.results = make([]*tuner.Result, len(w.jobs))
	return w
}

func (w *serveWorkload) jobNames() []string { return jobNames(w.jobs) }

// setup starts the worker daemons and pushes one job of each workflow
// through a throwaway service, resubmission included, as the warm-up.
func (w *serveWorkload) setup() error {
	w.close()
	for i := 0; i < procs(); i++ {
		var h http.Handler = worker.NewServer(1)
		if w.tr != nil {
			h = w.tr.workerMiddleware(h)
		}
		ts := httptest.NewServer(h)
		w.workers = append(w.workers, ts)
		w.workerURLs = append(w.workerURLs, ts.URL)
	}
	_, err := w.pass(w.jobs[:min(len(benchmarks), len(w.jobs))], nil)
	return err
}

func (w *serveWorkload) close() {
	for _, ts := range w.workers {
		ts.Close()
	}
	w.workers, w.workerURLs = nil, nil
}

// served is what a client saw of one job.
type served struct {
	postStart, postEnd, done time.Time
	status                   int
	streamBytes              int
	record                   []byte // GET /v1/runs/{id} body
	dedupStatus              int
	dedup                    time.Duration
	dedupBody                []byte
	err                      error
}

// passResult is one pass over a set of jobs through a fresh service.
type passResult struct {
	use      usage
	served   []served
	logBytes int64
	store    *tracedStore
	workerRq float64 // worker requests / items over the pass, from /metrics
	workerIt float64
}

// pass stands up a fresh store, manager and server, runs phase A and
// phase B over jobs, and tears everything down again.
func (w *serveWorkload) pass(jobs []job, tr *tracer) (*passResult, error) {
	dir, err := tempDir(".ceal-bench-serve-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fst, err := histdb.OpenFileStore(filepath.Join(dir, "runs.db"))
	if err != nil {
		return nil, err
	}
	res := &passResult{served: make([]served, len(jobs))}
	opts := service.Options{
		Workers: procs(),
		Store:   fst,
		Build:   service.BuildSpecRemote(w.workerURLs),
	}
	if tr != nil {
		res.store = &tracedStore{Store: fst, tr: tr}
		opts.Store = res.store
		remote := opts.Build
		opts.Build = func(spec service.JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
			t0 := time.Now()
			p, alg, err := remote(spec)
			if err != nil {
				return nil, nil, err
			}
			n := spec.Normalize()
			rt := tr.newRun(fmt.Sprintf("%s/s%d", n.Benchmark, n.Seed), n.Workers)
			rt.buildStart = t0
			rt.attach(p)
			rt.tuneStart = time.Now()
			tr.bySpec.Store(n.Key(), rt)
			return p, alg, nil
		}
	}
	mgr := service.NewManager(opts)
	ts := httptest.NewServer(service.NewServer(mgr))
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx) // closes the store
	}()

	rq0, it0 := w.workerCounters()
	clients := make([]*http.Client, procs())
	for i := range clients {
		// One connection per client: the event stream and the record fetch
		// that follows reuse it.
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
		defer clients[i].CloseIdleConnections()
	}
	each := func(fn func(c *http.Client, i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *http.Client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					fn(c, i)
				}
			}(c)
		}
		wg.Wait()
	}

	// Phase A: submit, follow the event stream to its end, fetch the record.
	res.use = window(func() {
		each(func(c *http.Client, i int) { res.served[i] = submitAndFollow(c, ts.URL, jobs[i].spec) })
	})
	// Phase B: resubmit; the service answers from the store.
	each(func(c *http.Client, i int) {
		s := &res.served[i]
		t0 := time.Now()
		s.dedupStatus, s.dedupBody, s.err = postSpec(c, ts.URL, jobs[i].spec)
		s.dedup = time.Since(t0)
	})

	rq1, it1 := w.workerCounters()
	res.workerRq, res.workerIt = rq1-rq0, it1-it0
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				res.logBytes += fi.Size()
			}
		}
		return nil
	})
	return res, nil
}

func postSpec(c *http.Client, base string, spec histdb.Spec) (int, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func submitAndFollow(c *http.Client, base string, spec histdb.Spec) served {
	s := served{postStart: time.Now()}
	var body []byte
	s.status, body, s.err = postSpec(c, base, spec)
	s.postEnd = time.Now()
	if s.err != nil || s.status != http.StatusCreated {
		return s
	}
	var rec struct {
		ID string `json:"id"`
	}
	if s.err = json.Unmarshal(body, &rec); s.err != nil {
		return s
	}
	resp, err := c.Get(base + "/v1/runs/" + rec.ID + "/events")
	if err != nil {
		s.err = err
		return s
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		s.err = err
		return s
	}
	s.streamBytes = int(n)
	resp, err = c.Get(base + "/v1/runs/" + rec.ID)
	if err != nil {
		s.err = err
		return s
	}
	s.record, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	return s
}

// workerCounters sums the daemons' request and item counters.
func (w *serveWorkload) workerCounters() (requests, items float64) {
	for _, u := range w.workerURLs {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			continue
		}
		var name string
		var v float64
		for {
			if _, err := fmt.Fscanf(resp.Body, "%s %g\n", &name, &v); err != nil {
				break
			}
			switch name {
			case "ceal_worker_requests_total":
				requests += v
			case "ceal_worker_items_total":
				items += v
			}
		}
		resp.Body.Close()
	}
	return requests, items
}

// wireRecord is the part of a run record the client checks. Result stays
// raw so identity checks compare the served bytes.
type wireRecord struct {
	ID          string          `json:"id"`
	State       histdb.RunState `json:"state"`
	Error       string          `json:"error"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Result      json.RawMessage `json:"result"`
	Collector   collector.Stats `json:"collector_stats"`
	Deduped     bool            `json:"deduped"`
}

func (w *serveWorkload) round(tr *tracer) (round, error) {
	pass, err := w.pass(w.jobs, tr)
	if err != nil {
		return round{}, err
	}
	n := float64(len(w.jobs))
	r := round{use: pass.use, jobs: make([]time.Duration, len(w.jobs)), extra: map[string]float64{}}

	var dedups []float64
	var recordBytes, streamBytes, rejected float64
	var submit, queue, run, post time.Duration
	var lays []*layers
	for i, s := range pass.served {
		name := w.jobs[i].name
		w.chk.attempt() // the job
		w.chk.attempt() // its resubmission
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		if s.err != nil || s.status != http.StatusCreated {
			w.chk.failf("%s: submit: status %d, %v", name, s.status, s.err)
			continue
		}
		r.jobs[i] = s.done.Sub(s.postStart)
		var rec wireRecord
		if err := json.Unmarshal(s.record, &rec); err != nil {
			w.chk.failf("%s: record: %v", name, err)
			continue
		}
		if rec.State != histdb.StateDone {
			w.chk.failf("%s: finished %s: %s", name, rec.State, rec.Error)
			continue
		}
		var res tuner.Result
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			w.chk.failf("%s: result: %v", name, err)
			continue
		}
		p, _, err := service.BuildSpec(w.jobs[i].spec)
		if err != nil {
			return round{}, err
		}
		checkResult(w.chk, name, w.jobs[i].spec, inPool(p.Pool, res.Best), &res)
		if w.first[i] == nil {
			w.first[i] = rec.Result
		} else if !bytes.Equal(w.first[i], rec.Result) {
			w.chk.failf("%s: result differs from the job's first run", name)
		}
		w.results[i] = &res

		var dup wireRecord
		switch err := json.Unmarshal(s.dedupBody, &dup); {
		case s.dedupStatus != http.StatusOK || err != nil || !dup.Deduped:
			w.chk.failf("%s: resubmit: status %d, deduped %v, %v", name, s.dedupStatus, dup.Deduped, err)
		case dup.ID != rec.ID || !bytes.Equal(dup.Result, rec.Result):
			w.chk.failf("%s: resubmit served a different run", name)
		default:
			dedups = append(dedups, ms(s.dedup))
		}

		recordBytes += float64(len(s.record))
		streamBytes += float64(s.streamBytes)
		submit += s.postEnd.Sub(s.postStart)
		queue += rec.StartedAt.Sub(rec.SubmittedAt)
		run += rec.FinishedAt.Sub(rec.StartedAt)
		post += s.done.Sub(rec.FinishedAt)
		if tr != nil {
			if v, ok := tr.bySpec.LoadAndDelete(w.jobs[i].spec.Key()); ok {
				rt := v.(*runTrace)
				lay := rt.finish()
				// The client's wall replaces the tune window's: what the
				// service adds around the run is named, the rest of the
				// difference is unattributed.
				lay.service = rec.SubmittedAt.Sub(s.postStart) + rec.StartedAt.Sub(rec.SubmittedAt) + s.done.Sub(rec.FinishedAt)
				lay.wall = r.jobs[i]
				lay.other = lay.wall - lay.named()
				lay.probes = &probes{stats: rec.Collector, rows: len(p.Pool)}
				lays = append(lays, &lay)
			}
		}
	}
	r.extra["dedup_p50_ms"] = median(dedups)

	if tr != nil {
		r.layer = layerMetrics(lays)
		r.layer["service.submit.ms"] = ms(submit) / n
		r.layer["service.queue_wait.ms"] = ms(queue) / n
		r.layer["service.run.ms"] = ms(run) / n
		r.layer["service.post_run.ms"] = ms(post) / n
		r.layer["service.record.bytes"] = recordBytes / n
		r.layer["service.stream.bytes"] = streamBytes / n
		r.layer["service.rejected"] = rejected
		r.layer["worker.requests"] = pass.workerRq / n
		r.layer["worker.items"] = pass.workerIt / n
		st := pass.store
		r.layer["histdb.save.count"] = float64(st.saves.Load()) / n
		r.layer["histdb.save.ms"] = float64(st.saveNS.Load()) / 1e6 / n
		r.layer["histdb.lookup.us"] = float64(st.lookupNS.Load()) / 1e3 / float64(max(st.lookups.Load(), 1))
		r.layer["histdb.log_bytes_per_run"] = float64(pass.logBytes) / n
		r.layer["histdb.write_amp"] = float64(pass.logBytes) / recordBytes
	}
	return r, nil
}

// finish re-runs a subset in-process: the service path must serve the
// byte-identical result the library computes directly.
func (w *serveWorkload) finish(metrics map[string]float64) error {
	for i := 0; i < len(w.jobs) && i < 6; i++ {
		if w.first[i] == nil {
			continue
		}
		w.chk.attempt()
		out := runLocal(w.jobs[i], nil, nil)
		if out.err != nil {
			w.chk.failf("%s: in-process re-run: %v", w.jobs[i].name, out.err)
			continue
		}
		local, err := json.Marshal(out.res)
		if err != nil {
			return err
		}
		if !bytes.Equal(local, w.first[i]) {
			w.chk.failf("%s: served result differs from the in-process result", w.jobs[i].name)
		}
	}
	return qualityMetrics(metrics, jobSpecs(w.jobs), w.results)
}
