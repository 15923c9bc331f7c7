package histdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ceal/internal/collector"
)

// liveRec is a running run's record, as a service admits and starts it.
func liveRec(id string, seed uint64) *RunRecord {
	return &RunRecord{
		ID: id, Spec: Spec{Benchmark: "LV", Seed: seed}, SpecKey: fmt.Sprintf("LV/s%d", seed),
		State: StateRunning, Components: []string{"lammps", "voro"},
	}
}

// batch is the progress frame of measured batch i of run id.
func batch(id string, i int) *Progress {
	return &Progress{
		ID:         id,
		Checkpoint: map[string]float64{fmt.Sprintf("w:%d", i): float64(i) + 0.5},
		Trace:      []json.RawMessage{json.RawMessage(fmt.Sprintf(`{"event":"batch_measured","iteration":%d}`, i))},
	}
}

// end is run id's terminal frame.
func end(id string, state RunState) *Progress {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return &Progress{
		ID: id, State: state, FinishedAt: &at, Error: map[bool]string{true: "interrupted"}[state != StateDone],
		Collector: &collector.Stats{Hits: 3, Misses: 4},
		Trace:     []json.RawMessage{json.RawMessage(`{"event":"run_finished"}`)},
	}
}

func mustOpen(t *testing.T, dir string) *FileStore {
	t.Helper()
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustSave(t *testing.T, st Store, frames ...any) {
	t.Helper()
	for _, f := range frames {
		var err error
		switch f := f.(type) {
		case *RunRecord:
			err = st.Save(f)
		case *Progress:
			err = st.SaveProgress(f)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestProgressFramesFoldOnReplay: progress frames grow their run's
// checkpoint and trace, a terminal frame ends the run, and frames for an
// unknown run or one past a terminal state change nothing — in the live
// view, in a MemStore fed the same frames, and after a replay.
func TestProgressFramesFoldOnReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st := mustOpen(t, dir)
	mem := NewMemStore()
	frames := []any{
		liveRec("run-000001", 1),
		batch("run-000001", 1),
		batch("run-000404", 1), // no such run
		batch("run-000001", 2),
		liveRec("run-000002", 2),
		end("run-000001", StateFailed),
		batch("run-000001", 3), // past its end
		batch("run-000002", 1),
		end("run-000002", StateDone),
		end("run-000002", StateFailed), // past its end
	}
	mustSave(t, st, frames...)
	mustSave(t, mem, frames...)

	failed := liveRec("run-000001", 1)
	e := end("run-000001", StateFailed)
	failed.State, failed.Error, failed.FinishedAt, failed.Collector = StateFailed, e.Error, *e.FinishedAt, *e.Collector
	failed.Checkpoint = map[string]float64{"w:1": 1.5, "w:2": 2.5}
	failed.Trace = append(append(batch("", 1).Trace, batch("", 2).Trace...), e.Trace...)
	done := liveRec("run-000002", 2)
	done.State, done.FinishedAt, done.Collector = StateDone, *e.FinishedAt, *e.Collector
	done.Trace = append(batch("", 1).Trace, e.Trace...)
	want := mustJSON(t, []*RunRecord{failed, done})

	if got := mustJSON(t, st.List()); !bytes.Equal(got, want) {
		t.Fatalf("live view:\n got %s\nwant %s", got, want)
	}
	if got := mustJSON(t, mem.List()); !bytes.Equal(got, want) {
		t.Fatalf("MemStore:\n got %s\nwant %s", got, want)
	}
	if got, ok := st.BySpec(done.SpecKey); !ok || got.ID != done.ID {
		t.Fatalf("a terminal frame left run-000002 out of the dedup index: %v", got)
	}
	st.Close()
	if got := mustJSON(t, mustOpen(t, dir).List()); !bytes.Equal(got, want) {
		t.Fatalf("replay:\n got %s\nwant %s", got, want)
	}
}

// TestDamagedProgressFrame: damage with intact progress frames after it
// refuses a strict open exactly as it does between records, and a torn
// last progress frame loses that one batch of progress, never the run.
func TestDamagedProgressFrame(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st := mustOpen(t, dir)
	mustSave(t, st, liveRec("run-000001", 1), batch("run-000001", 1), batch("run-000001", 2), batch("run-000001", 3))
	st.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("%d segments", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))[:4]
	for i, line := range lines {
		if kind := map[bool]byte{true: recordFrame, false: progressFrame}[i == 0]; line[8] != kind {
			t.Fatalf("frame %d has kind %q, want %q", i, line[8], kind)
		}
	}

	damaged := bytes.Clone(data)
	at := len(lines[0]) + len(lines[1])
	damaged[at+20] ^= 0x01 // the second progress frame's payload
	if err := os.WriteFile(segs[0], damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("histdb: %s: corrupt record at offset %d followed by intact records", segs[0], at)
	if _, err := OpenFileStore(dir); err == nil || err.Error() != want {
		t.Fatalf("strict open = %v, want %q", err, want)
	}

	torn := data[:len(data)-len(lines[3])/2]
	if err := os.WriteFile(segs[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok := mustOpen(t, dir).Get("run-000001")
	if !ok || rec.State != StateRunning {
		t.Fatalf("a torn progress frame lost the run: %+v", rec)
	}
	if want := map[string]float64{"w:1": 1.5, "w:2": 2.5}; !maps.Equal(rec.Checkpoint, want) || len(rec.Trace) != 2 {
		t.Fatalf("after a torn third batch: checkpoint %v, %d trace lines; want %v, 2", rec.Checkpoint, len(rec.Trace), want)
	}
}

// TestCompactFoldsProgress: a compacted store reopens to the same Get and
// List bytes as the folded view it was compacted from, its snapshot holds
// records only, and progress appended after the compaction folds onto it.
func TestCompactFoldsProgress(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st := mustOpen(t, dir)
	mustSave(t, st, liveRec("run-000001", 1), liveRec("run-000002", 2))
	for i := 1; i <= 4; i++ {
		mustSave(t, st, batch("run-000001", i), batch("run-000002", i))
	}
	mustSave(t, st, end("run-000002", StateDone))
	list := mustJSON(t, st.List())
	one, _ := st.Get("run-000001")
	get := mustJSON(t, one)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if lines := segmentRecords(t, dir); len(lines) != 2 || lines[0][8] != recordFrame || lines[1][8] != recordFrame {
		t.Fatalf("snapshot holds %d frames, want one record per run", len(lines))
	}
	re := mustOpen(t, dir)
	if got := mustJSON(t, re.List()); !bytes.Equal(got, list) {
		t.Fatalf("List after Compact and reopen:\n got %s\nwant %s", got, list)
	}
	if rec, _ := re.Get("run-000001"); !bytes.Equal(mustJSON(t, rec), get) {
		t.Fatalf("Get after Compact and reopen:\n got %s\nwant %s", mustJSON(t, rec), get)
	}
	re.Close()

	mustSave(t, st, batch("run-000001", 5))
	st.Close()
	rec, _ := mustOpen(t, dir).Get("run-000001")
	if len(rec.Checkpoint) != 5 || len(rec.Trace) != 5 {
		t.Fatalf("progress after Compact: %d entries, %d lines; want 5, 5", len(rec.Checkpoint), len(rec.Trace))
	}
}

// TestFoldLeavesReadersAlone: folding never writes to a checkpoint map or
// trace array that a saver or an earlier reader still holds.
func TestFoldLeavesReadersAlone(t *testing.T) {
	st := NewMemStore()
	saved := liveRec("run-000001", 1)
	saved.Checkpoint = map[string]float64{"w:0": 0.5}
	saved.Trace = make([]json.RawMessage, 1, 8) // room to grow in place
	saved.Trace[0] = json.RawMessage(`{"event":"run_started"}`)
	mustSave(t, st, saved, batch("run-000001", 1))
	read, _ := st.Get("run-000001")
	before := mustJSON(t, read)
	mustSave(t, st, batch("run-000001", 2), batch("run-000001", 3))

	if !reflect.DeepEqual(saved.Checkpoint, map[string]float64{"w:0": 0.5}) || len(saved.Trace[:cap(saved.Trace)][1]) != 0 {
		t.Fatalf("a fold wrote to the saver's record: %v, %q", saved.Checkpoint, saved.Trace[:cap(saved.Trace)])
	}
	if got := mustJSON(t, read); !bytes.Equal(got, before) {
		t.Fatalf("a fold changed a reader's record:\n got %s\nwant %s", got, before)
	}
	if got, _ := st.Get("run-000001"); len(got.Checkpoint) != 4 || len(got.Trace) != 4 {
		t.Fatalf("folded record: %d entries, %d lines; want 4, 4", len(got.Checkpoint), len(got.Trace))
	}
}
