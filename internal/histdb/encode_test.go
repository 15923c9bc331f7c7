package histdb

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// FuzzEncodeFramed holds the canonical encoder to json.Encoder, the
// reference: for any record or progress frame json.Unmarshal reads from a
// payload, whatever encodeCanonical accepts is json.Marshal's bytes, and
// encodeFramed writes the oracle's frame whether it accepts or declines.
func FuzzEncodeFramed(f *testing.F) {
	kinds, payloads := lifecycleFrames(f)
	served := servedRecords(1)[0]
	scored := benchRecords(1)[0]
	scored.Result.PoolScores = genScores(rand.New(rand.NewPCG(53, 1)), 8)
	kinds = append(kinds, recordFrame, recordFrame)
	payloads = append(payloads, mustJSON(f, served), mustJSON(f, scored))
	// Each mutation leaves the payload one json.Unmarshal reads, into a
	// value the canonical encoder writes too or declines.
	mutations := []func(string) string{
		func(s string) string { return s },
		func(s string) string { return strings.Replace(s, `{"event":`, `{"event" : `, 1) },
		func(s string) string { return strings.Replace(s, `{"event":"`, `{"event":"<&>`, 1) },
		func(s string) string { return strings.Replace(s, `{"event":"`, `{"event":"\"é`, 1) },
		func(s string) string { return strings.Replace(s, `{"event":"`, "{\"event\":\" ", 1) },
		func(s string) string { return strings.Replace(s, `{"event":"`, `{"event":"é`, 1) },
		func(s string) string {
			return strings.Replace(s, `{"event":`, `{"x":[-0,1E5,0.50,true,null,{}],"event":`, 1)
		},
		func(s string) string { return strings.Replace(s, `"trace":[`, `"trace":[null,[],`, 1) },
		func(s string) string { return strings.Replace(s, `"id":"run-`, `"id":"run<`, 1) },
		func(s string) string { return strings.Replace(s, `"state":"`, `"error":"a\tb","state":"`, 1) },
		func(s string) string { return strings.Replace(s, `Z"`, `+05:30"`, 1) },
		func(s string) string { return strings.Replace(s, `"checkpoint":{"`, `"checkpoint":{"<":1,"`, 1) },
	}
	for i, p := range payloads {
		p = shrinkFrame(f, kinds[i], p)
		if len(p) >= 1024 {
			f.Fatalf("a %d-byte seed: seeds stay under 1 KB, so the fuzzer mutates rather than minimizes", len(p))
		}
		for _, m := range mutations {
			f.Add(kinds[i] == progressFrame, []byte(m(string(p))))
		}
	}
	f.Fuzz(func(t *testing.T, progress bool, payload []byte) {
		kind, v := byte(recordFrame), any(new(RunRecord))
		if progress {
			kind, v = progressFrame, new(Progress)
		}
		if json.Unmarshal(payload, v) != nil {
			return
		}
		want, err := json.Marshal(v)
		if got, ok := encodeCanonical(nil, v); ok && (err != nil || !bytes.Equal(got, want)) {
			t.Fatalf("canonical encoder wrote\n%s\nwant\n%s (%v)", got, want, err)
		}
		line, ferr := encodeFramed(nil, kind, v)
		if (ferr == nil) != (err == nil) || err == nil && !bytes.Equal(line, oracleFrame(t, kind, v)) {
			t.Fatalf("encodeFramed = %q, %v; json.Marshal = %q, %v", line, ferr, want, err)
		}
	})
}

// TestCompactCopiesFrames: a store holding this process's saves, frames
// replayed on the canonical path, a frame replayed through json.Unmarshal,
// a record with progress folded in, another writer's record read by
// Refresh, a frame flipped on disk after the open and a segment removed
// before Compact remembers exactly the frames it may copy, and compacts to
// the bytes writeSegment writes over json.Encoder's frames.
func TestCompactCopiesFrames(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	recs := servedRecords(8)
	for _, r := range []*RunRecord{recs[3], recs[7]} { // json.Encoder writes these
		r.State, r.Result, r.Error = StateFailed, nil, `build: <refused> & "quoted"`
	}

	a := mustOpen(t, dir)
	mustSave(t, a, recs[0], recs[1], recs[2], recs[3])
	aSeg := filepath.Join(dir, a.segName)
	a.Close()

	st := mustOpen(t, dir)
	defer st.Close()
	c := mustOpen(t, dir)
	mustSave(t, c, recs[4])
	cSeg := filepath.Join(dir, c.segName)
	c.Close()
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	live := liveRec(recs[6].ID, 6)
	mustSave(t, st, recs[2], recs[5], live, batch(live.ID, 0), recs[7])

	var remembered []string
	for id := range st.frames {
		remembered = append(remembered, id)
	}
	slices.Sort(remembered)
	if want := []string{recs[0].ID, recs[1].ID, recs[2].ID, recs[4].ID, recs[5].ID, recs[7].ID}; !slices.Equal(remembered, want) {
		t.Fatalf("remembered frames of %v, want %v", remembered, want)
	}

	data, err := os.ReadFile(aSeg)
	if err != nil {
		t.Fatal(err)
	}
	ref := st.frames[recs[1].ID]
	data[ref.off+int64(ref.n/2)] ^= 0x01
	if err := os.WriteFile(aSeg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cSeg); err != nil {
		t.Fatal(err)
	}

	list := st.List()
	want := filepath.Join(t.TempDir(), "oracle.log")
	if _, err := writeSegment(want, len(list), func(i int, buf []byte) ([]byte, error) {
		return oracleFrame(t, recordFrame, list[i]), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, st.segName))
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := st.segments(); len(names) != 1 || !bytes.Equal(got, wantBytes) {
		t.Fatalf("%d segments after Compact; snapshot equal to the oracle's: %v", len(names), bytes.Equal(got, wantBytes))
	}
	if len(st.frames) != len(list) {
		t.Fatalf("%d frames remembered after Compact, want all %d", len(st.frames), len(list))
	}
}

// TestConcurrentSavesCompact: goroutines saving records and progress
// frames at once each frame in their own buffer, and the store compacts to
// the oracle's snapshot of what they saved.
func TestConcurrentSavesCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st := mustOpen(t, dir)
	defer st.Close()
	recs := servedRecords(40)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(recs); i += 4 {
				live := liveRec(recs[i].ID+"-live", uint64(i))
				for _, err := range []error{st.Save(recs[i]), st.Save(live), st.SaveProgress(batch(live.ID, i))} {
					if err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	list := st.List()
	want := filepath.Join(t.TempDir(), "oracle.log")
	if _, err := writeSegment(want, len(list), func(i int, buf []byte) ([]byte, error) {
		return oracleFrame(t, recordFrame, list[i]), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, st.segName))
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes, err := os.ReadFile(want); err != nil || !bytes.Equal(got, wantBytes) {
		t.Fatalf("snapshot of %d records differs from the oracle's (%v)", len(list), err)
	}
}
