package score

import (
	"sync/atomic"
	"testing"
	"time"

	"ceal/internal/cfgspace"
)

func TestNilEngineIsSerial(t *testing.T) {
	var e *Engine
	if e.Workers() != 1 {
		t.Fatalf("nil engine Workers = %d", e.Workers())
	}
	got := make([]float64, 10)
	e.Map(len(got), func(i int) { got[i] = float64(i) })
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("Map wrote %v at index %d", v, i)
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

// mustCodes is m.Codes for a pool that codes.
func mustCodes(t *testing.T, m *Matrix, e *Engine, pool []cfgspace.Config, coder *cfgspace.Coder) *Codes {
	t.Helper()
	q, err := m.Codes(e, pool, coder)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// counting returns a coder of the raw columns cols that counts its calls.
func counting(calls *atomic.Int32, cols ...cfgspace.Param) *cfgspace.Coder {
	return cfgspace.NewCoder(cols, func(c cfgspace.Config, dst []int) {
		calls.Add(1)
		copy(dst, c)
	})
}

func TestMatrixCachesBySliceIdentity(t *testing.T) {
	pool := []cfgspace.Config{{1, 2}, {3, 4}, {5, 6}}
	var calls atomic.Int32
	coder := counting(&calls, cfgspace.NewParam("x", 1, 5), cfgspace.NewParam("y", 2, 6))
	var m Matrix
	eng := New(4)
	first := mustCodes(t, &m, eng, pool, coder)
	if calls.Load() != 3 {
		t.Fatalf("first Codes derived %d rows, want 3", calls.Load())
	}
	if mustCodes(t, &m, eng, pool, coder) != first {
		t.Fatal("warm Codes returned a different matrix")
	}
	if calls.Load() != 3 {
		t.Fatalf("warm Codes re-derived (calls=%d)", calls.Load())
	}
	checkCodes(t, first, [][]float64{{1, 2}, {3, 4}, {5, 6}})
}

func TestMatrixRecomputesOnDifferentSlice(t *testing.T) {
	pool := []cfgspace.Config{{1}, {2}, {3}, {4}}
	var calls atomic.Int32
	coder := counting(&calls, cfgspace.NewParam("x", 1, 4))
	var m Matrix
	mustCodes(t, &m, nil, pool, coder)
	// A prefix of the same backing array has a different length: recompute.
	if sub := mustCodes(t, &m, nil, pool[:2], coder); sub.N != 2 {
		t.Fatalf("prefix codes = %d rows", sub.N)
	}
	if calls.Load() != 6 {
		t.Fatalf("calls = %d, want 4 + 2", calls.Load())
	}
	// A fresh slice with equal contents is a different pool: recompute.
	other := []cfgspace.Config{{1}, {2}}
	mustCodes(t, &m, nil, other, coder)
	if calls.Load() != 8 {
		t.Fatalf("calls = %d, want 8", calls.Load())
	}
	if q := mustCodes(t, &m, nil, nil, coder); q.N != 0 {
		t.Fatalf("empty pool coded %d rows", q.N)
	}
}

func TestMatrixConcurrentRows(t *testing.T) {
	// Hammer one Matrix from many goroutines (exercised under -race in CI):
	// every first caller must get the same complete matrix.
	pool := make([]cfgspace.Config, 300)
	rows := make([][]float64, len(pool))
	for i := range pool {
		pool[i] = cfgspace.Config{i, i * 2}
		rows[i] = []float64{float64(i + i*2)}
	}
	coder := cfgspace.NewCoder([]cfgspace.Param{cfgspace.NewSteppedParam("sum", 0, 897, 3)},
		func(c cfgspace.Config, dst []int) { dst[0] = c[0] + c[1] })
	var m Matrix
	eng := New(4)
	done := make(chan *Codes, 8)
	for g := 0; g < 8; g++ {
		go func() {
			q, _ := m.Codes(eng, pool, coder)
			done <- q
		}()
	}
	first := <-done
	checkCodes(t, first, rows)
	for g := 1; g < 8; g++ {
		if q := <-done; q != first {
			t.Fatal("concurrent first callers got different matrices")
		}
	}
}
