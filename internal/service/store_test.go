package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceal/internal/histdb"
	"ceal/internal/tuner"
)

func rec(id, key string, state histdb.RunState, at time.Time) *histdb.RunRecord {
	return &histdb.RunRecord{ID: id, Spec: JobSpec{Benchmark: "LV"}, SpecKey: key, State: state, SubmittedAt: at}
}

func TestMemStoreBySpecOnlyDone(t *testing.T) {
	s := histdb.NewMemStore()
	t0 := time.Unix(1000, 0)
	if err := s.Save(rec("run-000001", "k1", histdb.StateRunning, t0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.BySpec("k1"); ok {
		t.Fatal("running run served from BySpec")
	}
	if err := s.Save(rec("run-000001", "k1", histdb.StateDone, t0)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.BySpec("k1")
	if !ok || got.ID != "run-000001" {
		t.Fatalf("BySpec = %v, %v", got, ok)
	}
	if err := s.Save(rec("run-000002", "k2", histdb.StateFailed, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.BySpec("k2"); ok {
		t.Fatal("failed run served from BySpec")
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != "run-000001" || list[1].ID != "run-000002" {
		t.Fatalf("List = %v", list)
	}
	// Returned records are copies: mutating them must not corrupt the store.
	list[0].State = histdb.StateQueued
	if back, _ := s.Get("run-000001"); back.State != histdb.StateDone {
		t.Fatal("caller mutation leaked into store")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(2000, 0).UTC()

	// A full lifecycle leaves three lines for the same ID; reload must keep
	// only the last state.
	r := rec("run-000003", "LV/rs/comp/b5/p30/s7", histdb.StateQueued, t0)
	for _, st := range []histdb.RunState{histdb.StateQueued, histdb.StateRunning, histdb.StateDone} {
		r.State = st
		if st == histdb.StateDone {
			r.Result = &tuner.Result{Best: []int{1, 2, 3}, CollectionCost: 42.5, SwitchIteration: -1}
			r.Trace = []json.RawMessage{json.RawMessage(`{"event":"run_started"}`)}
		}
		if err := s.Save(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, ok := reopened.Get("run-000003")
	if !ok || got.State != histdb.StateDone {
		t.Fatalf("reloaded = %+v, %v", got, ok)
	}
	if got.Result == nil || got.Result.CollectionCost != 42.5 || got.Result.Best.Key() != "1,2,3" {
		t.Fatalf("result lost: %+v", got.Result)
	}
	if len(got.Trace) != 1 || string(got.Trace[0]) != `{"event":"run_started"}` {
		t.Fatalf("trace lost: %v", got.Trace)
	}
	if !got.SubmittedAt.Equal(t0) {
		t.Fatalf("submitted_at = %v, want %v", got.SubmittedAt, t0)
	}
	if _, ok := reopened.BySpec("LV/rs/comp/b5/p30/s7"); !ok {
		t.Fatal("BySpec lost across restart")
	}
	if n := histdb.MaxSeqFor(reopened, ""); n != 3 {
		t.Fatalf("maxSeq = %d, want 3", n)
	}
}

func TestFileStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(3000, 0)
	r := rec("run-000001", "k", histdb.StateQueued, t0)
	for _, st := range []histdb.RunState{histdb.StateQueued, histdb.StateRunning, histdb.StateDone} {
		r.State = st
		if err := s.Save(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Appends must keep working after the rewrite.
	if err := s.Save(rec("run-000002", "k2", histdb.StateQueued, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The store is now a directory of segments; after compaction plus one
	// append it must hold exactly two records total.
	lines := 0
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines += strings.Count(string(data), "\n")
	}
	if lines != 2 {
		t.Fatalf("compacted store has %d records, want 2", lines)
	}
	reopened, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, ok := reopened.Get("run-000001"); !ok || got.State != histdb.StateDone {
		t.Fatalf("after compact: %+v, %v", got, ok)
	}
	if _, ok := reopened.Get("run-000002"); !ok {
		t.Fatal("post-compact append lost")
	}
}

func TestFileStoreRejectsCorruptLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := histdb.OpenFileStore(path); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

// TestServedRunStoresNoPoolScores: a served run skips the full-pool pass,
// so no frame it leaves in the store carries pool scores, and its stored
// Result is JSON-identical to a direct Tune of the same spec.
func TestServedRunStoresNoPoolScores(t *testing.T) {
	spec := JobSpec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 12, Pool: 60, Seed: 5}
	p, alg, err := BuildSpec(spec.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := alg.Tune(p, spec.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if direct.PoolScores != nil {
		t.Fatalf("direct Tune scored the pool: %d scores", len(direct.PoolScores))
	}

	dir := filepath.Join(t.TempDir(), "runs")
	store, err := histdb.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Workers: 1, Store: store})
	rec, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, rec.ID)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	logs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	for _, name := range logs {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if !strings.Contains(line, `"result":{`) {
				continue
			}
			results++
			if !strings.Contains(line, `"PoolScores":null`) || strings.Contains(line, "pool_bits") {
				t.Fatalf("stored frame carries pool scores: %.300s", line)
			}
		}
	}
	if results == 0 {
		t.Fatal("no stored frame carries the result")
	}

	reopened, err := histdb.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	stored, ok := reopened.Get(rec.ID)
	if !ok || stored.State != histdb.StateDone {
		t.Fatalf("stored run = %+v, %v", stored, ok)
	}
	a, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(stored.Result); err != nil || string(a) != string(b) {
		t.Fatalf("stored result differs from direct Tune (%v):\ndirect: %s\nstored: %s", err, a, b)
	}
}
