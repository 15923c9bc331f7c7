// Package events defines the structured run-event trace emitted by the
// tuner's shared Loop engine. The same collector / modeler / searcher cycle
// (§2.2) drives every algorithm, and each of its phases — seeding, candidate
// selection, measurement, model (re)training, CEAL's switch and bias-escape
// decisions, iteration completion — is announced as one typed event.
//
// Events serve three consumers at once: production observability (the
// `-trace` JSONL stream of cmd/ceal-tune and the service's per-run event
// feed), reading a finished run back (`ceal-tune explain`, from a trace file
// or a stored record), and offline mining of tuning histories (the training
// data transfer-learning autotuners consume).
//
// An Observer is optional everywhere: a nil observer is the zero-cost
// default, and the Loop only constructs event values when one is attached.
// Phase spans — the Loop's wall time and work counts per phase — go only
// to observers that opt in by implementing PhaseObserver; every other
// observer's stream is unchanged by them.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Kind discriminates event types in serialized streams.
type Kind string

// The event taxonomy, in the order a run emits them.
const (
	KindRunStarted     Kind = "run_started"
	KindWarmStarted    Kind = "warm_started"
	KindBatchSelected  Kind = "batch_selected"
	KindBatchMeasured  Kind = "batch_measured"
	KindModelTrained   Kind = "model_trained"
	KindSwitchDecision Kind = "switch_decision"
	KindBiasEscape     Kind = "bias_escape"
	KindIterationDone  Kind = "iteration_done"
	KindFallback       Kind = "degenerate_fallback"
	KindRunFinished    Kind = "run_finished"

	// Continuous-mode events (tuner.Continuous over internal/drift): the
	// monitoring probes, the drift detector's escalating verdicts, and the
	// re-exploration cycle they trigger.
	KindProbeMeasured    Kind = "probe_measured"
	KindDriftSuspected   Kind = "drift_suspected"
	KindDriftConfirmed   Kind = "drift_confirmed"
	KindReexploreStarted Kind = "reexplore_started"
	KindReconverged      Kind = "reconverged"

	// KindPhase is a Loop phase span, delivered to PhaseObservers only.
	KindPhase Kind = "phase"
)

// Event is one step of a tuning run. Concrete types below carry the
// per-kind payloads; all are safe to retain after delivery (the Loop never
// reuses an emitted event's memory).
type Event interface {
	Kind() Kind
}

// RunStarted opens every trace: one per Algorithm.Tune call.
type RunStarted struct {
	Algorithm string `json:"algorithm"`
	Problem   string `json:"problem"`
	Budget    int    `json:"budget"`
	PoolSize  int    `json:"pool_size"`
	Seed      uint64 `json:"seed"`
}

// WarmStarted reports that the run was seeded with transfer-learning data
// from the tuning-history database before its first measurement: prior
// workflow samples of the same spec family and/or standalone component
// samples from runs sharing a component application.
type WarmStarted struct {
	// WorkflowSamples is how many prior workflow measurements seeded the
	// high-fidelity surrogate (0 = component transfer only).
	WorkflowSamples int `json:"workflow_samples"`
	// ComponentSamples is the total prior standalone component measurements
	// feeding the Phase-1 component models.
	ComponentSamples int `json:"component_samples"`
	// SurrogateSeeded reports whether the algorithm actually pre-trained
	// its surrogate on the workflow samples (strategies without warm-start
	// support still consume component samples but leave this false).
	SurrogateSeeded bool `json:"surrogate_seeded"`
}

// BatchSelected announces the configurations chosen for the next
// measurement batch, before any of them runs.
type BatchSelected struct {
	// Iteration is 0 for the seed batch, then 1..I for refinement batches.
	Iteration int `json:"iteration"`
	// Phase labels how the batch was chosen: "seed" for the initial batch,
	// "refine" for per-iteration strategy picks.
	Phase string `json:"phase"`
	Size  int    `json:"size"`
}

// BatchMeasured reports a completed measurement batch together with the
// collector cache behaviour it triggered (deltas over this batch only).
type BatchMeasured struct {
	Iteration int `json:"iteration"`
	Size      int `json:"size"`
	// CacheHits / CacheMisses / Coalesced are the collector's counter
	// deltas for this batch: how many configurations were served from the
	// memoization cache, freshly simulated, or folded into an in-flight
	// measurement.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Coalesced   uint64 `json:"coalesced"`
	// Cost is the summed measured value of the batch (metric units).
	Cost float64 `json:"cost"`
}

// ModelTrained reports a surrogate (re)fit.
type ModelTrained struct {
	Iteration int `json:"iteration"`
	// Model names what was fit: "surrogate" (the boosted-tree M_H) or
	// "low-fidelity" (Phase-1 component models + analytical combination).
	Model string `json:"model"`
	// Samples is the training-set size.
	Samples int `json:"samples"`
	// DurationNS is the wall-clock time of the (re)fit in nanoseconds —
	// the training-latency counterpart of BatchMeasured's cost counters,
	// there to make model-refit time visible per iteration in traces.
	DurationNS int64 `json:"duration_ns"`
	// Rounds is the fitted ensemble's size (boosting rounds or trees; 0
	// when the strategy has no ensemble to report).
	Rounds int `json:"rounds"`
}

// SwitchDecision is CEAL's model-switch detector verdict (Alg. 1 lines
// 16–24): the out-of-sample recall sums of the high- and low-fidelity
// models and whether control switched to the high-fidelity model.
type SwitchDecision struct {
	Iteration  int     `json:"iteration"`
	HighRecall float64 `json:"high_recall"`
	LowRecall  float64 `json:"low_recall"`
	Switched   bool    `json:"switched"`
}

// BiasEscape is CEAL's dynamic random top-up (Alg. 1 lines 20–22): the
// surrogate's favourites disagreed with the measured truth, so Added extra
// random configurations were queued for the next batch.
type BiasEscape struct {
	Iteration int `json:"iteration"`
	Added     int `json:"added"`
}

// IterationDone closes one loop iteration with the running best-so-far —
// the raw material of convergence-trajectory curves.
type IterationDone struct {
	Iteration int `json:"iteration"`
	// Measured is the cumulative workflow-sample count.
	Measured int `json:"measured"`
	// BestValue / BestConfig are the best measured configuration so far.
	BestValue  float64 `json:"best_value"`
	BestConfig []int   `json:"best_config"`
}

// Fallback reports the degenerate-budget path: no workflow configuration
// was measured, so the recommendation fell back to the model's pool argmin
// (an unverified prediction — visible here precisely because it is the one
// recommendation no measurement supports).
type Fallback struct {
	// PoolIndex is the argmin index into the problem's pool.
	PoolIndex int `json:"pool_index"`
}

// RunFinished closes every trace with the assembled result.
type RunFinished struct {
	Measured        int     `json:"measured"`
	ComponentRuns   int     `json:"component_runs"`
	CollectionCost  float64 `json:"collection_cost"`
	BestValue       float64 `json:"best_value"`
	BestConfig      []int   `json:"best_config"`
	SwitchIteration int     `json:"switch_iteration"`
}

// ProbeMeasured is one continuous-mode monitoring measurement of the
// incumbent configuration at the current platform condition.
type ProbeMeasured struct {
	// Probe is the 0-based probe index within the continuous run.
	Probe int `json:"probe"`
	// Clock is the virtual time (in reference-measurement units) after the
	// probe.
	Clock float64 `json:"clock"`
	// Value is the incumbent's measured value; Baseline is its value at the
	// last (re)convergence; Residual is (Value-Baseline)/Baseline.
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Residual float64 `json:"residual"`
	// Regret is Value minus the oracle best over the tracked configurations
	// at the current condition (0 when no oracle set is configured).
	Regret float64 `json:"regret"`
}

// DriftSuspected reports the detector seeing deviation that is not yet
// persistent enough to confirm.
type DriftSuspected struct {
	Probe    int     `json:"probe"`
	Clock    float64 `json:"clock"`
	Residual float64 `json:"residual"`
}

// DriftConfirmed reports a confirmed platform drift: the incumbent no
// longer performs as it did at (re)convergence, and re-exploration (if the
// driver has epochs left) follows.
type DriftConfirmed struct {
	Probe    int     `json:"probe"`
	Clock    float64 `json:"clock"`
	Residual float64 `json:"residual"`
	// Epoch is the 1-based re-exploration epoch this confirmation opens.
	Epoch int `json:"epoch"`
}

// ReexploreStarted opens one bounded re-exploration: a fresh tuning run,
// warm-started from the previous epoch's measurements, under the drifted
// condition.
type ReexploreStarted struct {
	Epoch  int     `json:"epoch"`
	Clock  float64 `json:"clock"`
	Budget int     `json:"budget"`
	// WarmSamples is how many prior workflow measurements seed the epoch.
	WarmSamples int `json:"warm_samples"`
}

// Reconverged closes one re-exploration epoch with its new incumbent and
// the time it took.
type Reconverged struct {
	Epoch int     `json:"epoch"`
	Clock float64 `json:"clock"`
	// DurationUnits is the virtual time the re-exploration consumed.
	DurationUnits float64 `json:"duration_units"`
	// Measurements is the epoch's workflow-measurement count.
	Measurements int     `json:"measurements"`
	BestValue    float64 `json:"best_value"`
	BestConfig   []int   `json:"best_config"`
}

// Phase is one span of the Loop — "bootstrap" (Phase-1 component models
// and warm start), and per iteration "select", "measure" and "fit" (the
// Controller's check and the refit) — or the run's "finish", with its wall
// time and the work it did. Only PhaseObservers receive it.
type Phase struct {
	Iteration int    `json:"iteration"`
	Phase     string `json:"phase"`
	WallNS    int64  `json:"wall_ns"`
	Work
}

// Work counts what a phase did. Every count is deterministic: the same
// run on any host gives the same counts, and only TreeNodes and
// RowsAbandoned depend on the scoring worker count (the selector's cut-off
// is per chunk).
type Work struct {
	// TreeNodes and RowsAbandoned are the M_H coded walk's tree nodes
	// visited and the rows its cut-off stopped early.
	TreeNodes     int64 `json:"tree_nodes"`
	RowsAbandoned int64 `json:"rows_abandoned"`
	// SplitsScanned counts split candidates the tree growers enumerated.
	SplitsScanned int64 `json:"splits_scanned"`
	// Draws counts SampleN's candidate configurations; Rejections those
	// of them that were invalid or repeats.
	Draws      int64 `json:"draws"`
	Rejections int64 `json:"rejections"`
	// SimEvents counts simulator events popped by the run's measurements.
	SimEvents int64 `json:"sim_events"`
	// Cells counts M_L cell representatives predicted.
	Cells int64 `json:"cells"`
	// Distances counts GEIST's parameter-graph distance evaluations.
	Distances int64 `json:"distances"`
}

// workNames are Work's counts' JSON names, in field order.
var workNames = [...]string{"tree_nodes", "rows_abandoned", "splits_scanned", "draws", "rejections", "sim_events", "cells", "distances"}

// counts returns w's counts in field order.
func (w *Work) counts() [len(workNames)]*int64 {
	return [...]*int64{&w.TreeNodes, &w.RowsAbandoned, &w.SplitsScanned, &w.Draws, &w.Rejections, &w.SimEvents, &w.Cells, &w.Distances}
}

// Add returns w plus v, count by count.
func (w Work) Add(v Work) Work { return w.plus(v, 1) }

// Sub returns w less v, count by count.
func (w Work) Sub(v Work) Work { return w.plus(v, -1) }

func (w Work) plus(v Work, k int64) Work {
	for i, n := range v.counts() {
		*w.counts()[i] += k * *n
	}
	return w
}

// String lists w's non-zero counts as name=count.
func (w Work) String() string {
	var b strings.Builder
	for i, n := range w.counts() {
		if *n != 0 {
			fmt.Fprintf(&b, " %s=%d", workNames[i], *n)
		}
	}
	return strings.TrimPrefix(b.String(), " ")
}

func (*RunStarted) Kind() Kind     { return KindRunStarted }
func (*WarmStarted) Kind() Kind    { return KindWarmStarted }
func (*BatchSelected) Kind() Kind  { return KindBatchSelected }
func (*BatchMeasured) Kind() Kind  { return KindBatchMeasured }
func (*ModelTrained) Kind() Kind   { return KindModelTrained }
func (*SwitchDecision) Kind() Kind { return KindSwitchDecision }
func (*BiasEscape) Kind() Kind     { return KindBiasEscape }
func (*IterationDone) Kind() Kind  { return KindIterationDone }
func (*Fallback) Kind() Kind       { return KindFallback }
func (*RunFinished) Kind() Kind    { return KindRunFinished }

func (*ProbeMeasured) Kind() Kind    { return KindProbeMeasured }
func (*DriftSuspected) Kind() Kind   { return KindDriftSuspected }
func (*DriftConfirmed) Kind() Kind   { return KindDriftConfirmed }
func (*ReexploreStarted) Kind() Kind { return KindReexploreStarted }
func (*Reconverged) Kind() Kind      { return KindReconverged }
func (*Phase) Kind() Kind            { return KindPhase }

// Observer receives the event stream of a tuning run. Events arrive in run
// order from the goroutine driving the loop; implementations that are
// shared across concurrent runs (e.g. one writer behind several battery
// replications) must synchronize internally. Observer failures never
// corrupt a run: the Loop isolates panics, and write errors are the
// observer's to surface (see JSONLWriter.Err).
type Observer interface {
	OnEvent(Event)
}

// PhaseObserver is an Observer that also takes the Loop's phase spans,
// after each phase ends, in run order with the events. Observers that do
// not implement it never see a Phase, and the Loop times nothing unless
// one is attached.
type PhaseObserver interface {
	Observer
	OnPhase(*Phase)
}

// Recorder is an Observer that retains every event in arrival order — the
// tool for tests and for library callers (ceal.NewRecorder). Safe for
// concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// OnEvent implements Observer.
func (r *Recorder) OnEvent(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a snapshot of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Multi fans one event stream out to several observers (nils are
// skipped). The result is a PhaseObserver when any of them is one, and
// forwards phase spans to those alone.
func Multi(obs ...Observer) Observer {
	var live []Observer
	phased := false
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
			_, ok := o.(PhaseObserver)
			phased = phased || ok
		}
	}
	switch {
	case len(live) == 0:
		return nil
	case len(live) == 1:
		return live[0]
	case phased:
		return phaseMulti{live}
	}
	return multi(live)
}

type multi []Observer

func (m multi) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

type phaseMulti struct{ multi }

func (m phaseMulti) OnPhase(ph *Phase) {
	for _, o := range m.multi {
		if po, ok := o.(PhaseObserver); ok {
			po.OnPhase(ph)
		}
	}
}

// JSONLWriter streams events as one JSON object per line:
//
//	{"event":"run_started","algorithm":"CEAL","problem":"LV/comp",...}
//
// The event kind is spliced in as the leading "event" member; the remaining
// members are the typed event's fields. Write and marshal errors are
// retained (first error wins) and reported by Err — the run itself never
// fails because its trace sink did. Safe for concurrent use.
type JSONLWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLWriter returns a JSONL observer over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// OnEvent implements Observer.
func (j *JSONLWriter) OnEvent(e Event) {
	line, err := MarshalJSON(e)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil && j.err == nil {
		j.err = err
	}
}

// OnPhase implements PhaseObserver: a phase span is one more line.
func (j *JSONLWriter) OnPhase(ph *Phase) { j.OnEvent(ph) }

// Err returns the first marshal or write error encountered, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// MarshalJSON renders one event as a single JSON object with the kind
// spliced in as the leading "event" member.
func MarshalJSON(e Event) ([]byte, error) {
	body, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf(`{"event":%q`, string(e.Kind()))
	if len(body) <= 2 { // "{}" — no fields
		return []byte(head + "}"), nil
	}
	return append([]byte(head+","), body[1:]...), nil
}
