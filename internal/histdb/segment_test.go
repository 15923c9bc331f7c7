package histdb

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestSegmentRolling drives the store past its segment-size threshold and
// checks the log rolls into multiple segments that reload to the same state.
func TestSegmentRolling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.segmentBytes = 256 // force frequent rolls
	const n = 20
	for i := 1; i <= n; i++ {
		if err := s.Save(&RunRecord{ID: fmt.Sprintf("run-%06d", i), State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("store did not roll segments: %v", segs)
	}
	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := len(reopened.List()); got != n {
		t.Fatalf("reloaded %d records, want %d", got, n)
	}
}

// TestSaveAfterFailedAppend: one failed append must not end persistence.
// The active segment's file is closed under the store: that Save fails, the
// next rolls a fresh segment and succeeds, Close succeeds, and a strict
// reopen holds exactly the records whose Save succeeded.
func TestSaveAfterFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	save := func(id string) error { return s.Save(&RunRecord{ID: id, State: StateDone}) }
	if err := save("run-000001"); err != nil {
		t.Fatal(err)
	}
	s.f.Close()
	if err := save("run-000002"); err == nil {
		t.Fatal("a save into a closed segment succeeded")
	}
	if err := save("run-000003"); err != nil {
		t.Fatalf("the save after a failed one: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a failed save: %v", err)
	}
	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	var ids []string
	for _, rec := range reopened.List() {
		ids = append(ids, rec.ID)
	}
	if got := strings.Join(ids, ","); got != "run-000001,run-000003" {
		t.Fatalf("reopened store holds %s, want run-000001,run-000003", got)
	}
}

// TestSharedDirectoryTwoWriters is the multi-writer property the segmented
// layout exists for: two store handles on one directory append to their own
// segments only, and Refresh folds the other writer's records in without
// anyone rewriting anyone's history.
func TestSharedDirectoryTwoWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	a, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Save(&RunRecord{ID: "run-a-000001", SpecKey: "ka", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&RunRecord{ID: "run-b-000001", SpecKey: "kb", State: StateDone}); err != nil {
		t.Fatal(err)
	}

	// Before Refresh each writer sees only its own run; afterwards, both.
	if _, ok := a.Get("run-b-000001"); ok {
		t.Fatal("writer A saw B's record without Refresh")
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*FileStore{a, b} {
		for _, id := range []string{"run-a-000001", "run-b-000001"} {
			if _, ok := s.Get(id); !ok {
				t.Fatalf("record %s missing after Refresh", id)
			}
		}
	}
	// Dedup across writers flows through BySpec after Refresh.
	if _, ok := a.BySpec("kb"); !ok {
		t.Fatal("BySpec did not index the other writer's run")
	}

	// Each writer owns exactly its own segment files: names embed distinct
	// writer IDs and no file was written by both.
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments = %v, err %v (want 2)", segs, err)
	}

	// Continued appends after Refresh stay visible to a fresh reader.
	if err := a.Save(&RunRecord{ID: "run-a-000002", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := len(fresh.List()); got != 3 {
		t.Fatalf("fresh reader sees %d records, want 3", got)
	}
}

// TestRefreshIsIncremental checks Refresh picks up growth at the tail of a
// segment it has already consumed, and is a no-op when nothing changed.
func TestRefreshIsIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	w, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 1; i <= 3; i++ {
		if err := w.Save(&RunRecord{ID: fmt.Sprintf("run-%06d", i), State: StateDone}); err != nil {
			t.Fatal(err)
		}
		if err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := len(r.List()); got != i {
			t.Fatalf("after save %d reader sees %d records", i, got)
		}
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.List()); got != 3 {
		t.Fatalf("idle Refresh changed view to %d records", got)
	}
}

// TestRefreshUnchangedStoreReadsNothing: Refresh runs before every dedup
// lookup, so on a store nobody appended to it must cost a stat per segment,
// not a read of every byte it already replayed.
func TestRefreshUnchangedStoreReadsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	w, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.segmentBytes = 128 << 10
	pad := strings.Repeat("k", 1000)
	for i := 1; i <= 1000; i++ { // ~1 MB over ~8 segments
		if err := w.Save(&RunRecord{ID: fmt.Sprintf("run-%06d", i), SpecKey: pad, State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, s := range []*FileStore{w, r} { // the writer's own segments, and another's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("Refresh of an unchanged ~1 MB store allocated %d bytes, want < 64 KB", got)
		}
	}
}

// TestOpenFileStoreRejectsFile: a regular file where the store directory
// should be is refused with an error that says so, and left untouched.
func TestOpenFileStoreRejectsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	content := []byte(`{"id":"run-000001","state":"done","collector_stats":{}}` + "\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFileStore(path)
	want := "histdb: " + path + " is a file, not a segmented store directory"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || string(got) != string(content) {
		t.Fatalf("file disturbed: %q, %v", got, rerr)
	}
}
