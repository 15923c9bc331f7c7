package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceal/internal/histdb"
)

// openReplica opens its own FileStore handle on the shared directory and
// wraps it in a Manager with the given replica ID.
func openReplica(t *testing.T, path, replica string, opts Options) *Manager {
	t.Helper()
	st, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	opts.ReplicaID = replica
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	return NewManager(opts)
}

// TestTwoReplicasShareStoreAndDedup is Layer 3's acceptance property: two
// Manager replicas on one store directory mint collision-free run IDs, and
// a spec completed by one replica is served from the shared store by the
// other instead of re-running.
func TestTwoReplicasShareStoreAndDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	a := openReplica(t, path, "a", Options{})
	defer a.Shutdown(context.Background())
	b := openReplica(t, path, "b", Options{})
	defer b.Shutdown(context.Background())

	recA, fresh, err := a.Submit(tinySpec(3))
	if err != nil || !fresh {
		t.Fatalf("Submit on a = %v, fresh %v", err, fresh)
	}
	if recA.ID != "run-a-000001" {
		t.Fatalf("replica a minted %s, want run-a-000001", recA.ID)
	}
	doneA := waitDone(t, a, recA.ID)
	if doneA.State != histdb.StateDone {
		t.Fatalf("run on a = %s (%s)", doneA.State, doneA.Error)
	}

	// The same spec through replica b: served from the shared store, not
	// re-run — and it is a's record, with a's result.
	recB, fresh, err := b.Submit(tinySpec(3))
	if err != nil || fresh {
		t.Fatalf("Submit on b = %v, fresh %v (want dedup)", err, fresh)
	}
	if recB.ID != recA.ID || recB.State != histdb.StateDone || recB.Result == nil {
		t.Fatalf("b deduped to %s/%s, want %s/done with result", recB.ID, recB.State, recA.ID)
	}
	if recB.Result.Best.Key() != doneA.Result.Best.Key() {
		t.Fatal("dedup served a different result than the original run")
	}
	if mt := b.Metrics(); mt.Deduped != 1 || mt.Started != 0 {
		t.Fatalf("b metrics = %+v, want pure dedup", mt)
	}

	// A different spec through b runs under b's ID namespace; a then dedupes
	// against it — the sharing is symmetric.
	recB2, fresh, err := b.Submit(tinySpec(4))
	if err != nil || !fresh {
		t.Fatalf("fresh Submit on b = %v, fresh %v", err, fresh)
	}
	if recB2.ID != "run-b-000001" {
		t.Fatalf("replica b minted %s, want run-b-000001", recB2.ID)
	}
	if got := waitDone(t, b, recB2.ID); got.State != histdb.StateDone {
		t.Fatalf("run on b = %s (%s)", got.State, got.Error)
	}
	recA2, fresh, err := a.Submit(tinySpec(4))
	if err != nil || fresh {
		t.Fatalf("Submit on a = %v, fresh %v (want dedup)", err, fresh)
	}
	if recA2.ID != recB2.ID {
		t.Fatalf("a deduped to %s, want %s", recA2.ID, recB2.ID)
	}

	// Cross-replica Get and Resume lookups see the other replica's runs too.
	if _, ok := a.Get(recB2.ID); !ok {
		t.Fatal("a cannot see b's finished run")
	}
	if _, err := a.Resume(recB2.ID); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("Resume of b's done run on a = %v, want ErrNotResumable", err)
	}
}

// TestReplicaCountersSurviveRestart: a restarted replica resumes its own
// ID sequence from the shared store without counting the other replica's.
func TestReplicaCountersSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	a := openReplica(t, path, "a", Options{})
	rec, _, err := a.Submit(tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, rec.ID)
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	b := openReplica(t, path, "b", Options{})
	recB, _, err := b.Submit(tinySpec(6))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, b, recB.ID)
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i, replica := range []string{"a", "b"} {
		m := openReplica(t, path, replica, Options{})
		rec, _, err := m.Submit(tinySpec(uint64(7 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := "run-" + replica + "-000002"; rec.ID != want {
			t.Fatalf("restarted replica %s minted %s, want %s", replica, rec.ID, want)
		}
		waitDone(t, m, rec.ID)
		m.Shutdown(context.Background())
	}
}

// TestMetricsLiveCollectorGauges: while a run is measuring, /metrics must
// expose its collector's cache counters and in-flight gauges; after it
// finishes the totals persist and the in-flight gauge returns to zero.
func TestMetricsLiveCollectorGauges(t *testing.T) {
	m := NewManager(Options{Workers: 1, Build: slowBuild(5 * time.Millisecond)})
	defer m.Shutdown(context.Background())
	srv := NewServer(m)

	rec, _, err := m.Submit(tinySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, rec.ID)

	// The live collector must surface activity before the run finishes.
	deadline := time.Now().Add(10 * time.Second)
	sawLive := false
	for time.Now().Before(deadline) {
		mt := m.Metrics()
		if mt.Running == 0 {
			break // finished before we sampled a live reading
		}
		if mt.CacheInFlightPeak > 0 && mt.CacheMisses > 0 {
			sawLive = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawLive {
		t.Log("run finished before a live gauge sample; totals checked below")
	}

	waitDone(t, m, rec.ID)
	mt := m.Metrics()
	if mt.CacheMisses == 0 {
		t.Fatal("cache totals lost after run finished")
	}
	if mt.CacheInFlight != 0 {
		t.Fatalf("in-flight gauge = %d after all runs finished", mt.CacheInFlight)
	}

	// The Prometheus exposition carries the new gauges.
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, name := range []string{"ceal_collector_in_flight ", "ceal_collector_in_flight_peak "} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %q:\n%s", name, body)
		}
	}
}
