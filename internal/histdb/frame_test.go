package histdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"
)

// oracleFrame is a frame as the format defines it: the payload's CRC32 as
// 8 hex digits, the kind byte, json.Marshal's bytes, a newline.
func oracleFrame(t testing.TB, kind byte, v any) []byte {
	t.Helper()
	payload := mustJSON(t, v)
	line := fmt.Appendf(nil, "%08x%c", crc32.ChecksumIEEE(payload), kind)
	line = append(line, payload...)
	return append(line, '\n')
}

// TestEncodeFramedMatchesOracle: encodeFramed writes the oracle's bytes for
// records of every shape — trace lines, checkpoints, pool scores, strings
// encoding/json escapes — and for progress frames, so a store either
// version wrote replays the same; a NaN score is still refused with
// json.Marshal's error.
func TestEncodeFramedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 2))
	check := func(kind byte, v any) {
		t.Helper()
		got, err := encodeFramed(kind, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleFrame(t, kind, v); !bytes.Equal(got, want) {
			t.Fatalf("frame differs from the oracle:\n got %.300s\nwant %.300s", got, want)
		}
	}
	for i := 0; i < 200; i++ {
		rec := genRecord(rng, i)
		if i%7 == 0 {
			rec.Error = `<refused> & "quoted" ` + " "
		}
		check(recordFrame, rec)
	}
	for _, rec := range benchRecords(3) {
		check(recordFrame, rec)
		check(progressFrame, &Progress{ID: rec.ID, Checkpoint: map[string]float64{"w:1,2,3": 0.5, "c1:4,5": 0.25}, Trace: rec.Trace[:4]})
		check(progressFrame, &Progress{ID: rec.ID, State: StateDone, Result: rec.Result, Collector: &rec.Collector})
	}

	rec := doneRec("run-000001", Spec{Benchmark: "LV"}, "lammps")
	rec.Result.PoolScores = []float64{1, math.NaN()}
	_, want := json.Marshal(rec)
	if _, err := encodeFramed(recordFrame, rec); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("NaN score: err = %v, want %v", err, want)
	}
}

// TestReplayBufferAliasesNothing: replay reads every segment through one
// buffer, so each later, smaller segment overwrites bytes an earlier one
// decoded from. Every record — progress folded in, trace lines and
// checkpoint keys included — must read back with the digest it was saved
// with: after the open, after a Refresh that reads another writer's
// segments, and after Compact and a reopen.
func TestReplayBufferAliasesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	want := NewMemStore()
	// writeAll saves recs on st, one segment per frame, largest first, with
	// a live run's progress frames after them.
	writeAll := func(st *FileStore, recs []*RunRecord) {
		t.Helper()
		st.segmentBytes = 1
		for i, r := range recs {
			r.Result.PoolScores = r.Result.PoolScores[:2000/(i+1)]
			for _, s := range []Store{st, want} {
				if err := s.Save(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		live := &RunRecord{ID: recs[0].ID + "-live", Spec: recs[0].Spec, State: StateRunning}
		p := &Progress{ID: live.ID, Checkpoint: map[string]float64{live.ID + ":1,2,3": 1.5}, Trace: recs[0].Trace[:2]}
		for _, s := range []Store{st, want} {
			if err := s.Save(live); err != nil {
				t.Fatal(err)
			}
			if err := s.SaveProgress(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(stage string, st *FileStore) {
		t.Helper()
		if got, exp := digests(t, st.List()), digests(t, want.List()); !slices.Equal(got, exp) {
			t.Fatalf("%s: records read back as\n%v\nwant\n%v", stage, got, exp)
		}
	}

	a, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(a, benchRecords(4))
	a.Close()
	if names, _ := a.segments(); len(names) < 3 {
		t.Fatalf("%d segments, want at least 3", len(names))
	}
	a, err = OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	same("open", a)

	b, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	other := benchRecords(8)[4:]
	for i, r := range other {
		r.ID = fmt.Sprintf("run-b-%06d", i+1)
	}
	writeAll(b, other)
	b.Close()
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	same("refresh", a)

	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	c, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	same("compact and reopen", c)
}
