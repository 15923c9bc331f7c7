package score

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"ceal/internal/cfgspace"
)

func TestFloatsIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 1000
	fn := func(i int) float64 {
		// Non-trivial float math so re-association or reordering would show.
		return math.Sin(float64(i)) * math.Sqrt(float64(i+1))
	}
	ref := New(1).Floats(n, fn)
	for _, w := range []int{2, 3, 4, 8, 33} {
		got := New(w).Floats(n, fn)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: index %d differs: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

func TestNilEngineIsSerial(t *testing.T) {
	var e *Engine
	if e.Workers() != 1 {
		t.Fatalf("nil engine Workers = %d", e.Workers())
	}
	got := e.Floats(10, func(i int) float64 { return float64(i) })
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("Floats[%d] = %v", i, v)
		}
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 257} {
		for _, w := range []int{1, 4, 9} {
			counts := make([]int32, n)
			New(w).Map(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestTasksRunsLowIndicesTogether: at width 2, indices 0 and 1 are on
// different workers at once — contiguous chunks put both on one worker,
// so index 0, waiting for index 1 to start, would never see it.
func TestTasksRunsLowIndicesTogether(t *testing.T) {
	started := make(chan struct{})
	New(2).Tasks(4, func(i int) {
		switch i {
		case 0:
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Error("index 1 did not start while index 0 ran")
			}
		case 1:
			close(started)
		}
	})
	for _, n := range []int{0, 1, 2, 5, 33} {
		for _, w := range []int{1, 2, 9} {
			counts := make([]int32, n)
			New(w).Tasks(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestMapChunksAreContiguousAndDisjoint(t *testing.T) {
	const n = 500
	owner := make([]int32, n)
	var chunkID int32
	New(7).MapChunks(n, func(lo, hi int) {
		id := atomic.AddInt32(&chunkID, 1)
		if lo >= hi {
			t.Errorf("empty chunk [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			if !atomic.CompareAndSwapInt32(&owner[i], 0, id) {
				t.Errorf("index %d assigned to two chunks", i)
			}
		}
	})
	for i, id := range owner {
		if id == 0 {
			t.Fatalf("index %d never covered", i)
		}
	}
}

func TestWorkersClamped(t *testing.T) {
	if New(0).Workers() != 1 || New(-3).Workers() != 1 {
		t.Fatal("non-positive widths should clamp to 1")
	}
	if New(6).Workers() != 6 {
		t.Fatal("width not preserved")
	}
}

func TestMatrixCachesBySliceIdentity(t *testing.T) {
	pool := []cfgspace.Config{{1, 2}, {3, 4}, {5, 6}}
	var calls atomic.Int32
	feats := func(c cfgspace.Config) []float64 {
		calls.Add(1)
		return []float64{float64(c[0]), float64(c[1])}
	}
	var m Matrix
	eng := New(4)
	first := m.Rows(eng, pool, feats)
	if calls.Load() != 3 {
		t.Fatalf("first Rows featurized %d times, want 3", calls.Load())
	}
	second := m.Rows(eng, pool, feats)
	if calls.Load() != 3 {
		t.Fatalf("warm Rows re-featurized (calls=%d)", calls.Load())
	}
	if &first[0] != &second[0] {
		t.Fatal("warm Rows returned a different matrix")
	}
	for i, row := range first {
		if row[0] != float64(pool[i][0]) || row[1] != float64(pool[i][1]) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

func TestMatrixRecomputesOnDifferentSlice(t *testing.T) {
	pool := []cfgspace.Config{{1}, {2}, {3}, {4}}
	var calls atomic.Int32
	feats := func(c cfgspace.Config) []float64 {
		calls.Add(1)
		return []float64{float64(c[0])}
	}
	var m Matrix
	m.Rows(nil, pool, feats)
	// A prefix of the same backing array has a different length: recompute.
	sub := m.Rows(nil, pool[:2], feats)
	if len(sub) != 2 {
		t.Fatalf("prefix rows = %d", len(sub))
	}
	if calls.Load() != 6 {
		t.Fatalf("calls = %d, want 4 + 2", calls.Load())
	}
	// A fresh slice with equal contents is a different pool: recompute.
	other := []cfgspace.Config{{1}, {2}}
	m.Rows(nil, other, feats)
	if calls.Load() != 8 {
		t.Fatalf("calls = %d, want 8", calls.Load())
	}
	if m.Rows(nil, nil, feats) != nil {
		t.Fatal("empty pool should yield nil rows")
	}
}

func TestMatrixConcurrentRows(t *testing.T) {
	// Hammer one Matrix from many goroutines (exercised under -race in CI):
	// every caller must get a complete, consistent matrix.
	pool := make([]cfgspace.Config, 300)
	for i := range pool {
		pool[i] = cfgspace.Config{i, i * 2}
	}
	feats := func(c cfgspace.Config) []float64 { return []float64{float64(c[0] + c[1])} }
	var m Matrix
	eng := New(4)
	done := make(chan [][]float64, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- m.Rows(eng, pool, feats) }()
	}
	for g := 0; g < 8; g++ {
		rows := <-done
		for i, row := range rows {
			if want := float64(pool[i][0] + pool[i][1]); row[0] != want {
				t.Fatalf("row %d = %v, want %v", i, row[0], want)
			}
		}
	}
}
