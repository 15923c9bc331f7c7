package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"ceal/internal/cluster"
)

// MeasurePath is the worker daemon's measurement endpoint.
const MeasurePath = "/v1/measure"

// Job identifies the problem a remote worker reconstructs before measuring:
// the benchmark workflow, the objective, the seed that keys the evaluator's
// noise, and the platform condition. Together with an Item's configuration
// this fully determines a measurement, which is why any worker produces
// the same value for the same item.
type Job struct {
	Benchmark string `json:"benchmark"`
	Objective string `json:"objective"`
	Seed      uint64 `json:"seed"`
	// Load is the platform condition; nil (absent on the wire) is nominal.
	Load *cluster.Load `json:"load,omitempty"`
}

// Under returns the job measured under condition ld (a zero ld is nil).
func (j Job) Under(ld cluster.Load) Job {
	j.Load = nil
	if !ld.IsZero() {
		j.Load = &ld
	}
	return j
}

// MeasureRequest is POST /v1/measure's body: the job identity plus the
// shard of items to measure.
type MeasureRequest struct {
	Job
	Items []Item `json:"items"`
}

// MeasureResponse is the worker's reply: one Measurement per requested
// item (any order; consumers index by Seq), or an error.
type MeasureResponse struct {
	Results []Measurement `json:"results,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// Remote fans measurement batches out over HTTP to N ceal-worker daemons.
//
// The batch is split into one contiguous shard per worker and the shards
// are posted concurrently. A failed shard (worker down, network error,
// non-200 reply) is re-posted up to remoteRetries times on the pool Local
// runs on, and each retry rotates to the next worker in the list, so a
// lost worker's shard is reassigned to a survivor rather than hammering
// the corpse.
//
// Results are byte-identical to Local at any worker count and across
// worker failures: values are deterministic per (job, item) and reassembly
// is by Seq, so neither sharding nor reassignment can reorder or change
// them.
type Remote struct {
	// Workers are the ceal-worker base URLs (e.g. http://host:9400). At
	// least one is required.
	Workers []string
	// Job is the problem identity sent with every shard.
	Job Job
	// Client is the HTTP client (nil: a client with a 5-minute timeout —
	// measurement batches are long-running).
	Client *http.Client

	// retries counts shard re-posts after transport failures over the
	// dispatcher's lifetime; see DispatchRetries.
	retries atomic.Uint64
}

// remoteRetries is how many times a failed shard is re-posted: with worker
// rotation, enough to lose three workers in a row under one shard.
const remoteRetries = 3

// DispatchRetries returns how many measurement shards were re-posted after
// transport failures (worker down, network error, non-200 reply) since the
// dispatcher was created — the transport-health counter surfaced on
// /metrics as ceal_dispatch_retries_total.
func (r *Remote) DispatchRetries() uint64 { return r.retries.Load() }

// NewRemote returns a Remote dispatcher posting job's batches to the given
// worker base URLs.
func NewRemote(workers []string, job Job) *Remote {
	return &Remote{Workers: workers, Job: job}
}

func (r *Remote) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

// Dispatch implements Dispatcher.
func (r *Remote) Dispatch(ctx context.Context, batch []Item) ([]Measurement, error) {
	if len(r.Workers) == 0 {
		return nil, fmt.Errorf("dispatch: remote dispatcher has no workers")
	}
	if len(batch) == 0 {
		return nil, nil
	}
	nshards := len(r.Workers)
	if nshards > len(batch) {
		nshards = len(batch)
	}
	// One pool job per shard: attempt k posts the shard to the k'th worker
	// after its home worker (rotation = reassignment on loss).
	jobs := make([]func(attempt int) ([]Measurement, error), nshards)
	for s := 0; s < nshards; s++ {
		s := s
		lo, hi := s*len(batch)/nshards, (s+1)*len(batch)/nshards
		shard := batch[lo:hi]
		jobs[s] = func(attempt int) ([]Measurement, error) {
			if attempt > 0 {
				r.retries.Add(1)
			}
			worker := r.Workers[(s+attempt)%len(r.Workers)]
			ms, err := r.post(ctx, worker, shard)
			if err != nil {
				return nil, err
			}
			// Fold the shard's resend count into each item's retry tally
			// (on top of any worker-side retries).
			if attempt > 0 {
				for i := range ms {
					ms[i].Retries += attempt
				}
			}
			return ms, nil
		}
	}
	shards, err := Do(ctx, nshards, Retry{MaxRetries: remoteRetries}, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, 0, len(batch))
	for _, ms := range shards {
		out = append(out, ms...)
	}
	return out, nil
}

// post sends one shard to one worker and validates the reply covers
// exactly the shard's items.
func (r *Remote) post(ctx context.Context, worker string, shard []Item) ([]Measurement, error) {
	body, err := json.Marshal(MeasureRequest{Job: r.Job, Items: shard})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+MeasurePath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", worker, err)
	}
	var mr MeasureResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		return nil, fmt.Errorf("dispatch: %s: bad response (%s): %w", worker, http.StatusText(resp.StatusCode), err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := mr.Error
		if msg == "" {
			msg = string(data)
		}
		return nil, fmt.Errorf("dispatch: %s: %s: %s", worker, resp.Status, msg)
	}
	if mr.Error != "" {
		return nil, fmt.Errorf("dispatch: %s: %s", worker, mr.Error)
	}
	// The shard reply must answer exactly the shard's seqs — catching
	// truncated or misrouted responses before they scramble the batch.
	want := make(map[int]bool, len(shard))
	for _, it := range shard {
		want[it.Seq] = true
	}
	if len(mr.Results) != len(shard) {
		return nil, fmt.Errorf("dispatch: %s: %d results for %d items", worker, len(mr.Results), len(shard))
	}
	for _, m := range mr.Results {
		if !want[m.Seq] {
			return nil, fmt.Errorf("dispatch: %s: result for unrequested seq %d", worker, m.Seq)
		}
		delete(want, m.Seq)
	}
	return mr.Results, nil
}
