package histdb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/histdb"
	"ceal/internal/service"
	"ceal/internal/tuner"
)

// cancelAfter measures through its Evaluator and calls cancel on the n-th
// workflow measurement.
type cancelAfter struct {
	collector.Evaluator
	n      int64
	calls  atomic.Int64
	cancel func()
}

func (e *cancelAfter) MeasureWorkflow(cfg cfgspace.Config) (float64, error) {
	if e.calls.Add(1) == e.n {
		e.cancel()
	}
	return e.Evaluator.MeasureWorkflow(cfg)
}

// TestServedRunFramesTakeTheCanonicalPath runs tune, warm, failed,
// cancelled and continuous jobs through service.Manager on a FileStore:
// every frame their log holds — records, progress and terminal frames —
// decodes in one pass, to json.Unmarshal's value.
func TestServedRunFramesTakeTheCanonicalPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st, err := histdb.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tune := service.JobSpec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 12, Pool: 60, Seed: 1}
	warm, failed, cancelled, continuous := tune, tune, tune, tune
	warm.Seed, warm.WarmStart = 2, true
	failed.Seed = 3
	cancelled.Seed, cancelled.Budget = 4, 30
	continuous.Seed, continuous.Mode, continuous.Drift, continuous.Probes = 5, histdb.ModeContinuous, "step", 20

	var m *service.Manager
	m = service.NewManager(service.Options{Workers: 1, Store: st, Build: func(spec service.JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
		if spec.Seed == failed.Seed {
			return nil, nil, errors.New("build: no workflow for this seed")
		}
		p, alg, err := service.BuildSpec(spec)
		if err == nil && spec.Seed == cancelled.Seed {
			p.Eval = &cancelAfter{Evaluator: p.Eval, n: 10, cancel: func() { m.Cancel("run-000004") }}
		}
		return p, alg, err
	}})
	want := []histdb.RunState{histdb.StateDone, histdb.StateDone, histdb.StateFailed, histdb.StateCancelled, histdb.StateDone}
	for i, spec := range []service.JobSpec{tune, warm, failed, cancelled, continuous} {
		rec, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = m.Wait(ctx, rec.ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := m.Get(rec.ID); got.State != want[i] || (got.Spec.WarmStart && got.Warm.Empty()) {
			t.Fatalf("%s ended %s (%q), want %s", rec.ID, got.State, got.Error, want[i])
		}
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	ends := map[histdb.RunState]int{}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			payload := line[9 : len(line)-1]
			var fast, ref any = new(histdb.RunRecord), new(histdb.RunRecord)
			if line[8] == '+' {
				fast, ref = new(histdb.Progress), new(histdb.Progress)
			}
			if err := json.Unmarshal(payload, ref); err != nil {
				t.Fatal(err)
			}
			if !histdb.DecodeCanonical(payload, fast) || !reflect.DeepEqual(fast, ref) {
				t.Fatalf("frame left the canonical path or decoded differently:\n%.400s", payload)
			}
			if p, ok := ref.(*histdb.Progress); ok && p.State != "" {
				ends[p.State]++
				if p.Continuous != nil {
					ends["continuous"]++
				}
			}
		}
	}
	if ends[histdb.StateDone] != 3 || ends[histdb.StateFailed] != 1 || ends[histdb.StateCancelled] != 1 || ends["continuous"] != 1 {
		t.Fatalf("terminal frames by state: %v", ends)
	}
}

// canonicalStore is a FileStore that checks, before saving it, that every
// frame takes the canonical encoder and comes out as json.Marshal's bytes,
// and counts the frames by the state they carry.
type canonicalStore struct {
	*histdb.FileStore
	t      *testing.T
	mu     sync.Mutex
	frames map[string]int
}

func (s *canonicalStore) check(v any, what string) {
	want, err := json.Marshal(v)
	if got, ok := histdb.EncodeCanonical(nil, v); err != nil || !ok || !bytes.Equal(got, want) {
		s.t.Errorf("a %s frame declined (%v) or differs from json.Marshal's:\n%.400s", what, ok, want)
	}
	s.mu.Lock()
	s.frames[what]++
	s.mu.Unlock()
}

func (s *canonicalStore) Save(rec *histdb.RunRecord) error {
	s.check(rec, string(rec.State))
	return s.FileStore.Save(rec)
}

func (s *canonicalStore) SaveProgress(p *histdb.Progress) error {
	s.check(p, "progress "+string(p.State))
	return s.FileStore.SaveProgress(p)
}

// TestServedFramesEncodeCanonically runs tune, warm and continuous jobs
// through service.Manager: the queued, running, progress and terminal
// frames they save never decline the canonical encoder.
func TestServedFramesEncodeCanonically(t *testing.T) {
	fs, err := histdb.OpenFileStore(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	st := &canonicalStore{FileStore: fs, t: t, frames: map[string]int{}}
	m := service.NewManager(service.Options{Workers: 1, Store: st})
	tune := service.JobSpec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 12, Pool: 60, Seed: 1}
	warm, continuous := tune, tune
	warm.Seed, warm.WarmStart = 2, true
	continuous.Seed, continuous.Mode, continuous.Drift, continuous.Probes = 3, histdb.ModeContinuous, "step", 20
	for _, spec := range []service.JobSpec{tune, warm, continuous} {
		rec, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = m.Wait(ctx, rec.ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	f := st.frames
	if f["queued"] != 3 || f["running"] < 3 || f["progress "] == 0 || f["progress done"] != 3 {
		t.Fatalf("frames saved, by state: %v", f)
	}
}
