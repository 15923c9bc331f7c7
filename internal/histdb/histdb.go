// Package histdb is the tuning-history database: a queryable store of every
// tuning run the system has performed, persisted as a directory of
// CRC-framed append-only segment files (see FileStore).
//
// It grew out of the serving layer's run store (internal/service) and is the
// repository's answer to GPTune's HistoryDB: finished runs are not just
// dedup material for identical resubmissions, they are *training data* for
// new runs. Two query axes serve the transfer-learning paths:
//
//   - BySpecFamily: runs of the same spec family (benchmark / algorithm /
//     objective / pool — seed, budget, workers and the warm-start flag are
//     deliberately ignored) whose workflow samples seed a new run's Phase-2
//     surrogate;
//   - ByComponent: runs that measured a named component standalone, whose
//     component samples feed Phase-1 models of any workflow sharing that
//     component.
//
// Select filters by any conjunction of those and the benchmark name.
//
// Records additionally carry a measurement Checkpoint (the run's journal,
// grown by one Progress frame per measured batch) so an interrupted run of
// any kind can be resumed: replaying the same deterministic spec over it
// re-derives the identical Result, measuring only what the checkpoint lacks.
package histdb

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ceal/internal/collector"
	"ceal/internal/tuner"
)

// RunState is a run's lifecycle state.
type RunState string

// The run lifecycle: queued → running → done | failed | cancelled.
const (
	StateQueued    RunState = "queued"
	StateRunning   RunState = "running"
	StateDone      RunState = "done"
	StateFailed    RunState = "failed"
	StateCancelled RunState = "cancelled"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunRecord is one tuning run from submission through persistence — the
// history database's row type. Zero timestamps mean "not yet".
type RunRecord struct {
	ID      string   `json:"id"`
	Spec    Spec     `json:"spec"`
	SpecKey string   `json:"spec_key"`
	State   RunState `json:"state"`

	// Components names the benchmark's component applications in problem
	// order — the index map that lets ByComponent consumers find a
	// component's samples inside Result.ComponentSamples.
	Components []string `json:"components,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`

	// Result is the tuning outcome (done runs only). It is exactly the
	// *tuner.Result the same Tune call would return directly, including the
	// measured Samples and ComponentSamples that warm-start consumers train
	// on.
	Result *tuner.Result `json:"result,omitempty"`
	// Continuous is the continuous-mode outcome summary (done continuous
	// runs only): probe/retune counts, per-epoch reconvergence, and the
	// time-weighted cumulative regret. Result holds the final epoch's
	// tuning result.
	Continuous *tuner.ContinuousResult `json:"continuous,omitempty"`
	// Error is the failure or cancellation cause (failed/cancelled runs).
	Error string `json:"error,omitempty"`
	// Trace is the run's full event stream as marshaled JSONL lines (the
	// bytes GET /v1/runs/{id}/events replays). Partial for cancelled runs.
	Trace []json.RawMessage `json:"trace,omitempty"`
	// Checkpoint is the run's measurement journal (dispatch.Journal: item
	// key, under a non-nominal condition prefixed by it → measured value),
	// grown by a Progress frame after every measured batch while a run is
	// live and retained for interrupted runs. A resume's journal starts from
	// it, so the replay serves every already-measured item instead of
	// re-measuring. Cleared on successful completion.
	Checkpoint map[string]float64 `json:"checkpoint,omitempty"`
	// Warm is the warm-start data the run was admitted with (assembled from
	// the history database once, then pinned here so a resume replays the
	// exact same inputs even if the database has grown since).
	Warm *tuner.WarmStart `json:"warm,omitempty"`
	// Collector is the run's measurement-cache statistics snapshot, taken
	// when the run finished.
	Collector collector.Stats `json:"collector_stats"`
	// Runner is the replica (its ReplicaID) that admitted the run and runs
	// it while it is queued or running: after a resume, not necessarily the
	// replica whose ID prefix the run carries.
	Runner string `json:"runner,omitempty"`
}

// Progress is a progress frame: the checkpoint entries and trace lines a
// live run gained since its previous frame. A run's terminal frame also
// carries its end — State and the fields after it replace the record's, and
// a done State clears the checkpoint — so a run's log holds each byte once.
type Progress struct {
	ID         string                  `json:"id"`
	Checkpoint map[string]float64      `json:"checkpoint,omitempty"`
	Trace      []json.RawMessage       `json:"trace,omitempty"`
	State      RunState                `json:"state,omitempty"`
	FinishedAt *time.Time              `json:"finished_at,omitempty"`
	Error      string                  `json:"error,omitempty"`
	Result     *tuner.Result           `json:"result,omitempty"`
	Continuous *tuner.ContinuousResult `json:"continuous,omitempty"`
	Collector  *collector.Stats        `json:"collector_stats,omitempty"`
}

// Clone returns a shallow copy. Slice and pointer fields are shared but
// treated as immutable once assigned, so the copy is safe to hand out.
func (r *RunRecord) Clone() *RunRecord {
	cp := *r
	return &cp
}

// Store is the history database interface. Implementations must be safe for
// concurrent use. Records passed to Save and frames passed to SaveProgress
// are snapshots owned by the store; records returned by lookups and queries
// are shared and read-only: Clone one before modifying it.
type Store interface {
	// Save upserts a record by ID.
	Save(rec *RunRecord) error
	// SaveProgress folds a progress frame into its run's record; not into
	// an unknown or finished run's.
	SaveProgress(p *Progress) error
	// Get returns the record with the given ID.
	Get(id string) (*RunRecord, bool)
	// List returns all records in deterministic order: by creation sequence
	// (the order IDs were first saved — log order for a FileStore), then ID.
	List() []*RunRecord
	// BySpec returns the completed (StateDone) record for an exact spec
	// key, if any — the dedup lookup serving repeated submissions.
	BySpec(key string) (*RunRecord, bool)
	// ByComponent returns the completed runs whose benchmark contains the
	// named component application, in List order.
	ByComponent(name string) []*RunRecord
	// BySpecFamily returns the completed runs whose spec belongs to the
	// given family (see Spec.FamilyKey), in List order.
	BySpecFamily(family string) []*RunRecord
	// Close releases any underlying resources.
	Close() error
}

// Query selects history records by any conjunction of the three axes;
// zero-valued fields match everything.
type Query struct {
	// Workflow filters by benchmark name (case-insensitive).
	Workflow string
	// Component filters to runs whose benchmark contains this component.
	Component string
	// Family filters by exact spec-family key (Spec.FamilyKey).
	Family string
}

// Select returns the store's completed runs matching every set field of q,
// in List order.
func Select(s Store, q Query) []*RunRecord {
	return selectRecords(s.List(), q)
}

// selectRecords filters a record list to completed runs matching q.
func selectRecords(recs []*RunRecord, q Query) []*RunRecord {
	var out []*RunRecord
	wf := strings.ToUpper(strings.TrimSpace(q.Workflow))
	for _, rec := range recs {
		if rec.State != StateDone {
			continue
		}
		if wf != "" && rec.Spec.Normalize().Benchmark != wf {
			continue
		}
		if q.Component != "" && !contains(rec.Components, q.Component) {
			continue
		}
		if q.Family != "" && rec.Spec.FamilyKey() != q.Family {
			continue
		}
		out = append(out, rec)
	}
	return out
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// SeqOf returns the sequence number of a run ID minted by the given replica
// — "run-<replica>-%d", or plain "run-%d" when replica is empty — and false
// for anyone else's. Replica-prefixed allocation lets multiple ceal-serve
// replicas share one store without ID collisions: each replica resumes its
// own counter and never reads another replica's. Replica names should not
// be purely numeric, or they become ambiguous with unprefixed sequences.
func SeqOf(id, replica string) (int, bool) {
	format := "run-%d"
	if replica != "" {
		format = "run-" + replica + "-%d"
	}
	var n int
	_, err := fmt.Sscanf(id, format, &n)
	return n, err == nil
}
