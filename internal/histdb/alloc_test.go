//go:build !race

package histdb

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestSaveAllocs: a Save frames its record in one allocation — what it
// allocates in all is at most 1.25x the frame's length (the allocator's
// size classes) plus 1 KiB for the in-memory upsert, not a payload and a
// framed copy of it.
func TestSaveAllocs(t *testing.T) {
	st, err := OpenFileStore(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := benchRecords(1)[0]
	rec.Result.PoolScores = nil // a served run scores no pool
	line, err := encodeFramed(recordFrame, rec)
	if err != nil {
		t.Fatal(err)
	}
	save := func() {
		if err := st.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	save() // opens the segment and indexes the ID
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		save()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.25*float64(len(line)) + 1024; got > limit {
		t.Errorf("Save of a %d-byte frame allocates %.0f B, want <= %.0f B", len(line), got, limit)
	}
}
