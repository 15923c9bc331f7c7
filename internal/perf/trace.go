package perf

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/dispatch"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

// Span is one timed interval at a layer boundary, as written to the span
// file: the run it belongs to, its parent span (0 for a run's root), and
// start/end in nanoseconds since the benchmark process started tracing.
type Span struct {
	Run     string `json:"run"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer owns the spans of every traced run in the process. Spans stay in
// memory until writeSpans.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span

	// bySpec routes store saves (serve workload) to the run they belong to.
	bySpec sync.Map // spec key -> *runTrace
	// handled carries worker-handler durations back to the round trip that
	// caused them (same process, so a map stands in for a response header).
	handled sync.Map // request id -> time.Duration
	reqID   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(spans []Span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// interval is a raw timed interval recorded by a wrapper; finish turns
// intervals into parented spans.
type interval struct {
	name       string
	start, end time.Time
}

// mark is the timeline observer's record of one tuner event: when it
// arrived and how much time the wrapped seams had accumulated by then, so
// each gap between events can be split between the loop phase it belongs
// to and the layers nested inside it.
type mark struct {
	kind  string
	model string        // model_trained only
	dur   time.Duration // model_trained only: the fit's own duration
	t     time.Time
	feat  int64 // featurize busy ns so far
	disp  int64 // dispatch span ns so far
	save  int64 // store save ns so far
}

// Synthetic timeline anchors around the Tune call.
const (
	kindTuneStart = "tune_start"
	kindTuneEnd   = "tune_end"
)

// runTrace is the instrumentation of one traced tuning run: the seam
// wrappers accumulate into it and the timeline observer snapshots it at
// every event.
type runTrace struct {
	tr    *tracer
	run   string
	width int // scoring fan width (Problem.Workers), >= 1

	featNS, featCalls atomic.Int64
	saveNS            atomic.Int64

	mu         sync.Mutex
	evalActive int
	evalStart  time.Time
	evalUnion  time.Duration // wall time with >= 1 evaluation running
	wfNS       time.Duration
	compNS     time.Duration
	wfCalls    int
	compCalls  int
	trips      []trip // round trips of the dispatch in progress
	intervals  []interval

	// Dispatch totals; Dispatch calls of one run never overlap.
	dispSpan, dispSelf, evalCrit time.Duration
	wire, handle                 time.Duration
	batches, items               int
	reqBytes, respBytes          int64

	marks  []mark
	events []events.Event

	buildStart, tuneStart, tuneEnd time.Time
}

// trip is one worker round trip inside a remote dispatch.
type trip struct {
	start, end time.Time
	handle     time.Duration
}

func (t *tracer) newRun(run string, width int) *runTrace {
	if width < 1 {
		width = 1
	}
	return &runTrace{tr: t, run: run, width: width}
}

// attach wires the run's wrappers into a freshly built problem: the
// evaluator (local measurement only), the dispatcher, the workflow
// featurizer and the observer.
func (rt *runTrace) attach(p *tuner.Problem) {
	if p.Dispatcher == nil {
		p.Eval = &tracedEval{inner: p.Eval, rt: rt}
		// Exactly what Problem.Collector builds for a nil dispatcher.
		p.Dispatcher = dispatch.NewLocal(p.Eval, p.Runner)
	} else if r, ok := p.Dispatcher.(*dispatch.Remote); ok {
		r.Client = &http.Client{
			Timeout:   5 * time.Minute, // Remote's own default
			Transport: &tracedTransport{base: http.DefaultTransport, rt: rt},
		}
	}
	p.Dispatcher = &tracedDispatcher{inner: p.Dispatcher, rt: rt}
	feats := p.Features
	if feats == nil {
		feats = p.Space.Features
	}
	p.Features = func(cfg cfgspace.Config) []float64 {
		t0 := time.Now()
		f := feats(cfg)
		rt.featNS.Add(int64(time.Since(t0)))
		rt.featCalls.Add(1)
		return f
	}
	p.Observer = events.Multi(rt, p.Observer)
}

// OnEvent implements events.Observer: the timestamping timeline.
func (rt *runTrace) OnEvent(e events.Event) {
	m := mark{kind: string(e.Kind())}
	if mt, ok := e.(*events.ModelTrained); ok {
		m.model = mt.Model
		m.dur = time.Duration(mt.DurationNS)
	}
	m.t = time.Now()
	m.feat = rt.featNS.Load()
	m.save = rt.saveNS.Load()
	// The lock orders the timeline with finish, which a served run's
	// client calls from another goroutine once the run is over.
	rt.mu.Lock()
	m.disp = int64(rt.dispSpan)
	rt.marks = append(rt.marks, m)
	rt.events = append(rt.events, e)
	rt.mu.Unlock()
}

// tracedEval times every simulator call and keeps the union of their
// intervals: with a parallel runner the union, not the sum, is what the
// dispatch span waited for.
type tracedEval struct {
	inner collector.Evaluator
	rt    *runTrace
}

func (e *tracedEval) enter() time.Time {
	now := time.Now()
	rt := e.rt
	rt.mu.Lock()
	if rt.evalActive == 0 {
		rt.evalStart = now
	}
	rt.evalActive++
	rt.mu.Unlock()
	return now
}

func (e *tracedEval) exit(start time.Time, component bool) {
	now := time.Now()
	rt := e.rt
	rt.mu.Lock()
	rt.evalActive--
	if rt.evalActive == 0 {
		rt.evalUnion += now.Sub(rt.evalStart)
	}
	name := "workflow.eval"
	if component {
		name = "workflow.eval_component"
		rt.compNS += now.Sub(start)
		rt.compCalls++
	} else {
		rt.wfNS += now.Sub(start)
		rt.wfCalls++
	}
	rt.intervals = append(rt.intervals, interval{name, start, now})
	rt.mu.Unlock()
}

func (e *tracedEval) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	t0 := e.enter()
	v, err := e.inner.MeasureWorkflow(cfg)
	e.exit(t0, false)
	return v, err
}

func (e *tracedEval) MeasureComponent(j int, cfg cfgspace.Config) (float64, error) {
	t0 := e.enter()
	v, err := e.inner.MeasureComponent(j, cfg)
	e.exit(t0, true)
	return v, err
}

// tracedDispatcher times each measurement batch and splits its span into
// the part that waited for measurement (simulator calls in-process, the
// slowest shard's worker handler remotely), the wire, and its own work.
type tracedDispatcher struct {
	inner dispatch.Dispatcher
	rt    *runTrace
}

func (d *tracedDispatcher) Dispatch(ctx context.Context, batch []dispatch.Item) ([]dispatch.Measurement, error) {
	rt := d.rt
	rt.mu.Lock()
	evalBefore := rt.evalUnion
	rt.trips = rt.trips[:0]
	rt.mu.Unlock()

	t0 := time.Now()
	ms, err := d.inner.Dispatch(ctx, batch)
	t1 := time.Now()
	span := t1.Sub(t0)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.intervals = append(rt.intervals, interval{"dispatch", t0, t1})
	rt.dispSpan += span
	rt.batches++
	rt.items += len(batch)
	if len(rt.trips) == 0 {
		crit := rt.evalUnion - evalBefore
		rt.evalCrit += crit
		rt.dispSelf += span - crit
		return ms, err
	}
	// A sharded batch waits for its slowest shard: that round trip is the
	// critical path, the other shards finish inside it.
	slow := rt.trips[0]
	for _, tp := range rt.trips[1:] {
		if tp.end.Sub(tp.start) > slow.end.Sub(slow.start) {
			slow = tp
		}
	}
	rtt := slow.end.Sub(slow.start)
	rt.handle += slow.handle
	rt.wire += rtt - slow.handle
	rt.dispSelf += span - rtt
	return ms, err
}

// DispatchRetries forwards the transport-health counter the collector
// looks for, so wrapping does not hide it from Stats.
func (d *tracedDispatcher) DispatchRetries() uint64 {
	if rc, ok := d.inner.(collector.ShardRetryCounter); ok {
		return rc.DispatchRetries()
	}
	return 0
}

// perfReqHeader tags a traced round trip so the worker middleware can
// report its handler time back to it.
const perfReqHeader = "X-Ceal-Bench-Req"

// tracedTransport times each worker round trip up to the last body byte.
type tracedTransport struct {
	base http.RoundTripper
	rt   *runTrace
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := strconv.FormatInt(t.rt.tr.reqID.Add(1), 10)
	req = req.Clone(req.Context())
	req.Header.Set(perfReqHeader, id)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.rt.mu.Lock()
	t.rt.reqBytes += req.ContentLength
	t.rt.mu.Unlock()
	resp.Body = &tripBody{ReadCloser: resp.Body, t: t, id: id, start: start}
	return resp, nil
}

type tripBody struct {
	io.ReadCloser
	t     *tracedTransport
	id    string
	start time.Time
	n     int64
	done  bool
}

func (b *tripBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tripBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tripBody) finish() {
	if b.done {
		return
	}
	b.done = true
	end := time.Now()
	rt := b.t.rt
	var handle time.Duration
	if h, ok := rt.tr.handled.LoadAndDelete(b.id); ok {
		handle = h.(time.Duration)
	}
	rt.mu.Lock()
	rt.respBytes += b.n
	rt.trips = append(rt.trips, trip{start: b.start, end: end, handle: handle})
	rt.intervals = append(rt.intervals, interval{"dispatch.roundtrip", b.start, end})
	if handle > 0 {
		// The handler ran somewhere inside the round trip; centre it, the
		// wire time on either side is not separately observable.
		pad := (end.Sub(b.start) - handle) / 2
		rt.intervals = append(rt.intervals, interval{"worker.handle", b.start.Add(pad), b.start.Add(pad + handle)})
	}
	rt.mu.Unlock()
}

// workerMiddleware times worker requests that carry a trace tag.
func (t *tracer) workerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(perfReqHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t.handled.Store(id, time.Since(t0))
	})
}

// tracedStore decorates the service's store: save and dedup-lookup times,
// with each save charged to the run whose record it wrote.
type tracedStore struct {
	histdb.Store
	tr *tracer

	saves, saveNS     atomic.Int64
	lookups, lookupNS atomic.Int64
}

func (s *tracedStore) Save(rec *histdb.RunRecord) error {
	t0 := time.Now()
	err := s.Store.Save(rec)
	d := int64(time.Since(t0))
	s.saves.Add(1)
	s.saveNS.Add(d)
	if rt, ok := s.tr.bySpec.Load(rec.SpecKey); ok {
		rt.(*runTrace).saveNS.Add(d)
	}
	return err
}

func (s *tracedStore) BySpec(key string) (*histdb.RunRecord, bool) {
	t0 := time.Now()
	rec, ok := s.Store.BySpec(key)
	s.lookupNS.Add(int64(time.Since(t0)))
	s.lookups.Add(1)
	return rec, ok
}

// Refresh keeps the multi-writer hook the manager probes for.
func (s *tracedStore) Refresh() error {
	if r, ok := s.Store.(interface{ Refresh() error }); ok {
		return r.Refresh()
	}
	return nil
}

// layers is one traced run's wall time split into per-layer self times,
// plus the counts taken at the same boundaries.
type layers struct {
	wall time.Duration

	sample                        time.Duration // problem assembly (pool sampling)
	eval, collector               time.Duration
	dispSpan, dispSelf            time.Duration
	wire, handle                  time.Duration
	feat, fit, acm                time.Duration
	bootstrap, sel, final, other  time.Duration
	save                          time.Duration
	service                       time.Duration // submit, queue wait and record fetch around a served run
	fits, fitRounds               int
	iterations, measured          int
	eventCount, eventBytes        int
	featCalls, wfCalls, compCalls int
	wfNS, compNS                  time.Duration
	batches, items                int
	reqBytes, respBytes           int64

	probes *probes // post-run direct measurements (in-process jobs)
}

// named is the time attributed to a named layer: everything but other.
func (l *layers) named() time.Duration {
	return l.sample + l.eval + l.collector + l.dispSelf + l.wire + l.handle +
		l.feat + l.fit + l.acm + l.bootstrap + l.sel + l.final + l.save + l.service
}

// finish splits the run's timeline into layer self times and files its
// spans with the tracer. Every gap between two consecutive events belongs
// to the loop phase the later event closes; store saves, the dispatch span
// and featurization nested in the gap are carved out of it first. What no
// rule names is left in other, so the parts always sum to the wall.
func (rt *runTrace) finish() layers {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tuneEnd.IsZero() && len(rt.marks) > 0 {
		// A served run: Tune returns inside the manager, right after the
		// last event.
		rt.tuneEnd = rt.marks[len(rt.marks)-1].t
	}
	l := layers{
		wall:      rt.tuneEnd.Sub(rt.buildStart),
		sample:    rt.tuneStart.Sub(rt.buildStart),
		eval:      rt.evalCrit,
		dispSpan:  rt.dispSpan,
		dispSelf:  rt.dispSelf,
		wire:      rt.wire,
		handle:    rt.handle,
		featCalls: int(rt.featCalls.Load()),
		wfCalls:   rt.wfCalls, compCalls: rt.compCalls,
		wfNS: rt.wfNS, compNS: rt.compNS,
		batches: rt.batches, items: rt.items,
		reqBytes: rt.reqBytes, respBytes: rt.respBytes,
		eventCount: len(rt.events),
	}
	for _, e := range rt.events {
		if line, err := events.MarshalJSON(e); err == nil {
			l.eventBytes += len(line) + 1
		}
		switch ev := e.(type) {
		case *events.ModelTrained:
			if ev.Model != "low-fidelity" {
				l.fits++
				l.fitRounds += ev.Rounds
			}
		case *events.IterationDone:
			l.iterations = ev.Iteration + 1
		case *events.RunFinished:
			l.measured = ev.Measured
		}
	}

	marks := make([]mark, 0, len(rt.marks)+2)
	marks = append(marks, mark{kind: kindTuneStart, t: rt.tuneStart})
	marks = append(marks, rt.marks...)
	last := marks[len(marks)-1]
	marks = append(marks, mark{kind: kindTuneEnd, t: rt.tuneEnd, feat: last.feat, disp: last.disp, save: rt.saveNS.Load()})

	root := rt.tr.nextID.Add(1)
	tune := rt.tr.nextID.Add(1)
	spans := []Span{
		rt.span(root, 0, "run", rt.buildStart, rt.tuneEnd),
		rt.span(rt.tr.nextID.Add(1), root, "cfgspace.sample", rt.buildStart, rt.tuneStart),
		rt.span(tune, root, "tune", rt.tuneStart, rt.tuneEnd),
	}
	phases := make([]Span, 0, len(marks))
	for i := 1; i < len(marks); i++ {
		prev, m := marks[i-1], marks[i]
		gap := m.t.Sub(prev.t)
		save := time.Duration(m.save - prev.save)
		rest := gap - save - time.Duration(m.disp-prev.disp)
		l.save += save

		featWall := time.Duration(m.feat - prev.feat)
		if m.kind == string(events.KindBatchSelected) || m.kind == string(events.KindRunFinished) {
			// Pool featurization fans across the scoring workers.
			featWall /= time.Duration(rt.width)
		}
		featWall = clamp(featWall, rest)
		l.feat += featWall
		rest -= featWall

		name := "tuner.other"
		switch {
		case m.kind == string(events.KindModelTrained) && m.model == "low-fidelity":
			// The event's duration covers the whole bootstrap, component
			// measurements included; those are already carved out.
			fit := clamp(m.dur-time.Duration(m.disp-prev.disp)-featWall, rest)
			l.acm += fit
			l.bootstrap += rest - fit
			name = "tuner.bootstrap"
		case m.kind == string(events.KindModelTrained):
			fit := clamp(m.dur-featWall, rest)
			l.fit += fit
			l.other += rest - fit
			name = "tuner.fit"
		case m.kind == string(events.KindBatchSelected):
			l.sel += rest
			name = "tuner.select"
		case m.kind == string(events.KindBatchMeasured):
			l.collector += rest
			name = "collector.measure"
		case m.kind == string(events.KindRunFinished):
			l.final += rest
			name = "tuner.final_score"
		default:
			l.other += rest
		}
		phases = append(phases, rt.span(rt.tr.nextID.Add(1), tune, name, prev.t, m.t))
	}
	spans = append(spans, phases...)

	// Parent each wrapper interval by containment: dispatches sit in a
	// phase, simulator calls and round trips in a dispatch, handlers in a
	// round trip.
	var dispatches, trips []Span
	for _, iv := range rt.intervals {
		if iv.name == "dispatch" {
			dispatches = append(dispatches, rt.span(rt.tr.nextID.Add(1), rt.parentOf(phases, iv, tune), iv.name, iv.start, iv.end))
		}
	}
	for _, iv := range rt.intervals {
		if iv.name == "dispatch.roundtrip" {
			trips = append(trips, rt.span(rt.tr.nextID.Add(1), rt.parentOf(dispatches, iv, tune), iv.name, iv.start, iv.end))
		}
	}
	spans = append(spans, dispatches...)
	spans = append(spans, trips...)
	for _, iv := range rt.intervals {
		switch iv.name {
		case "dispatch", "dispatch.roundtrip":
		case "worker.handle":
			spans = append(spans, rt.span(rt.tr.nextID.Add(1), rt.parentOf(trips, iv, tune), iv.name, iv.start, iv.end))
		default:
			spans = append(spans, rt.span(rt.tr.nextID.Add(1), rt.parentOf(dispatches, iv, tune), iv.name, iv.start, iv.end))
		}
	}
	rt.tr.add(spans)
	return l
}

func (rt *runTrace) span(id, parent int64, name string, start, end time.Time) Span {
	return Span{Run: rt.run, ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(rt.tr.t0)), EndNS: int64(end.Sub(rt.tr.t0))}
}

// parentOf returns the candidate span containing the interval's start, or
// fallback when none does.
func (rt *runTrace) parentOf(cands []Span, iv interval, fallback int64) int64 {
	start := int64(iv.start.Sub(rt.tr.t0))
	for _, c := range cands {
		if c.StartNS <= start && start <= c.EndNS {
			return c.ID
		}
	}
	return fallback
}

func clamp(d, max time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if d > max {
		if max < 0 {
			return 0
		}
		return max
	}
	return d
}

// layerMetrics turns a traced round's runs into per-layer metric values:
// times and counts are per-run means.
func layerMetrics(runs []*layers) map[string]float64 {
	if len(runs) == 0 {
		return nil
	}
	n := float64(len(runs))
	sumD := func(f func(*layers) time.Duration) float64 {
		var s time.Duration
		for _, l := range runs {
			s += f(l)
		}
		return ms(s) / n
	}
	sumN := func(f func(*layers) float64) float64 {
		s := 0.0
		for _, l := range runs {
			s += f(l)
		}
		return s / n
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]float64{
		"cfgspace.sample.ms":     sumD(func(l *layers) time.Duration { return l.sample }),
		"workflow.eval.ms":       sumD(func(l *layers) time.Duration { return l.eval }),
		"workflow.wf_calls":      sumN(func(l *layers) float64 { return float64(l.wfCalls) }),
		"workflow.comp_calls":    sumN(func(l *layers) float64 { return float64(l.compCalls) }),
		"collector.self.ms":      sumD(func(l *layers) time.Duration { return l.collector }),
		"dispatch.span.ms":       sumD(func(l *layers) time.Duration { return l.dispSpan }),
		"dispatch.self.ms":       sumD(func(l *layers) time.Duration { return l.dispSelf }),
		"dispatch.wire.ms":       sumD(func(l *layers) time.Duration { return l.wire }),
		"dispatch.batches":       sumN(func(l *layers) float64 { return float64(l.batches) }),
		"dispatch.items":         sumN(func(l *layers) float64 { return float64(l.items) }),
		"dispatch.req_bytes":     sumN(func(l *layers) float64 { return float64(l.reqBytes) }),
		"dispatch.resp_bytes":    sumN(func(l *layers) float64 { return float64(l.respBytes) }),
		"worker.handle.ms":       sumD(func(l *layers) time.Duration { return l.handle }),
		"score.featurize.ms":     sumD(func(l *layers) time.Duration { return l.feat }),
		"score.featurize.calls":  sumN(func(l *layers) float64 { return float64(l.featCalls) }),
		"xgb.fit.ms":             sumD(func(l *layers) time.Duration { return l.fit }),
		"xgb.fit.count":          sumN(func(l *layers) float64 { return float64(l.fits) }),
		"xgb.fit.rounds":         sumN(func(l *layers) float64 { return float64(l.fitRounds) }),
		"acm.fit.ms":             sumD(func(l *layers) time.Duration { return l.acm }),
		"tuner.bootstrap.ms":     sumD(func(l *layers) time.Duration { return l.bootstrap }),
		"tuner.select.ms":        sumD(func(l *layers) time.Duration { return l.sel }),
		"tuner.final_score.ms":   sumD(func(l *layers) time.Duration { return l.final }),
		"tuner.other.ms":         sumD(func(l *layers) time.Duration { return l.other }),
		"tuner.iterations":       sumN(func(l *layers) float64 { return float64(l.iterations) }),
		"tuner.measured":         sumN(func(l *layers) float64 { return float64(l.measured) }),
		"events.count":           sumN(func(l *layers) float64 { return float64(l.eventCount) }),
		"events.bytes":           sumN(func(l *layers) float64 { return float64(l.eventBytes) }),
		"trace.unattributed_pct": 100 * ratio(sumD(func(l *layers) time.Duration { return l.other }), sumD(func(l *layers) time.Duration { return l.wall })),
		// traceSumPct is not a catalog metric: the smoke test reads it to
		// assert the parts add up to the wall.
		traceSumPct: 100 * ratio(sumD(func(l *layers) time.Duration { return l.named() + l.other }), sumD(func(l *layers) time.Duration { return l.wall })),
	}
	wfUS := sumN(func(l *layers) float64 { return float64(l.wfNS) / 1e3 })
	compUS := sumN(func(l *layers) float64 { return float64(l.compNS) / 1e3 })
	m["workflow.wf_us_per_call"] = ratio(wfUS, m["workflow.wf_calls"])
	m["workflow.comp_us_per_call"] = ratio(compUS, m["workflow.comp_calls"])

	if runs[0].probes != nil {
		pr := func(f func(*probes) float64) float64 {
			return sumN(func(l *layers) float64 { return f(l.probes) })
		}
		hits := pr(func(p *probes) float64 { return float64(p.stats.Hits) })
		misses := pr(func(p *probes) float64 { return float64(p.stats.Misses) })
		coalesced := pr(func(p *probes) float64 { return float64(p.stats.Coalesced) })
		m["cfgspace.sample.configs"] = pr(func(p *probes) float64 { return float64(p.rows) })
		m["collector.hits"] = hits
		m["collector.misses"] = misses
		m["collector.coalesced"] = coalesced
		m["collector.reuse_ratio"] = ratio(hits+coalesced, hits+misses+coalesced)
		m["collector.peak_in_flight"] = pr(func(p *probes) float64 { return float64(p.stats.InFlightPeak) })
		m["dispatch.retries"] = pr(func(p *probes) float64 { return float64(p.stats.Retries + p.stats.DispatchRetries) })
		m["collector.hit.us_per_cfg"] = pr(func(p *probes) float64 { return p.hitUS })
		m["xgb.predict.float_ns_per_row"] = pr(func(p *probes) float64 { return p.floatNS })
		m["xgb.predict.quant_ns_per_row"] = pr(func(p *probes) float64 { return p.quantNS })
		m["xgb.predict.rows"] = pr(func(p *probes) float64 { return float64(p.rows) })
	}
	return m
}

// traceSumPct is the share of a traced round's wall its layer self times
// (other included) add up to.
const traceSumPct = "trace.sum_pct"
