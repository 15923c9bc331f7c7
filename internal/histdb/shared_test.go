package histdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestReadRecordsStayPut: reads share stored records, so a record held from
// any read method must keep its JSON bytes through everything the store
// does later: a Save over its ID, progress and terminal frames for its run,
// and on a FileStore a Refresh folding another writer's frames and a
// Compact. A fold that changed a handed-out record in place fails it.
func TestReadRecordsStayPut(t *testing.T) {
	for _, kind := range []string{"mem", "file"} {
		t.Run(kind, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "runs")
			var st Store = NewMemStore()
			fs, isFile := (*FileStore)(nil), kind == "file"
			if isFile {
				fs = mustOpen(t, dir)
				defer fs.Close()
				st = fs
			}
			first := doneRec("run-000001", Spec{Benchmark: "LV", Seed: 1}, "lammps", "voro")
			mustSave(t, st, first, liveRec("run-000002", 2), batch("run-000002", 1), liveRec("run-000003", 3))

			ids := []string{"run-000001", "run-000002", "run-000003"}
			var held []*RunRecord
			var want [][]byte
			read := func() {
				for _, id := range ids {
					if rec, ok := st.Get(id); ok {
						held = append(held, rec)
					}
				}
				held = append(held, st.List()...)
				for _, key := range []string{first.SpecKey, liveRec("run-000002", 2).SpecKey} {
					if rec, ok := st.BySpec(key); ok {
						held = append(held, rec)
					}
				}
				held = append(held, st.BySpecFamily(first.Spec.FamilyKey())...)
				held = append(held, st.ByComponent("voro")...)
				for _, rec := range held[len(want):] {
					want = append(want, mustJSON(t, rec))
				}
			}
			resaved := first.Clone()
			resaved.Error = "saved again"
			steps := []func(){
				func() { mustSave(t, st, resaved) },
				func() { mustSave(t, st, batch("run-000002", 2), batch("run-000003", 1)) },
				func() { mustSave(t, st, end("run-000002", StateDone)) },
			}
			if isFile {
				steps = append(steps,
					func() {
						other := mustOpen(t, dir)
						mustSave(t, other, batch("run-000003", 2))
						other.Close()
						if err := fs.Refresh(); err != nil {
							t.Fatal(err)
						}
					},
					func() {
						if err := fs.Compact(); err != nil {
							t.Fatal(err)
						}
					})
			}
			steps = append(steps, func() { mustSave(t, st, batch("run-000003", 3), end("run-000003", StateFailed)) })

			read()
			for _, step := range steps {
				step()
				read()
			}
			for i, rec := range held {
				if got := mustJSON(t, rec); !bytes.Equal(got, want[i]) {
					t.Fatalf("held record %d (%s) changed after it was read:\n got %s\nwant %s", i, rec.ID, got, want[i])
				}
			}
			wantCP := map[bool]int{false: 2, true: 3}[isFile]
			if got, _ := st.Get("run-000003"); len(got.Checkpoint) != wantCP || got.State != StateFailed {
				t.Fatalf("run-000003 folded to %d entries, %s; want %d, failed", len(got.Checkpoint), got.State, wantCP)
			}
		})
	}
}

// TestReadersRaceFolds: readers marshal the records they hold, twice each,
// while a writer folds progress frames into the same runs. Under -race an
// in-place fold is a reported race; without it, the two marshals of a held
// record may differ.
func TestReadersRaceFolds(t *testing.T) {
	st := NewMemStore()
	const runs, frames = 4, 60
	id := func(i int) string { return fmt.Sprintf("run-%06d", i+1) }
	for i := 0; i < runs; i++ {
		mustSave(t, st, liveRec(id(i), uint64(i+1)))
	}
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				if pass == 1 {
					ready.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				recs := st.List()
				if rec, ok := st.Get(id(g)); ok {
					recs = append(recs, rec)
				}
				for _, rec := range recs {
					a, _ := json.Marshal(rec)
					b, _ := json.Marshal(rec)
					if !bytes.Equal(a, b) {
						t.Errorf("%s changed while held", rec.ID)
						return
					}
				}
			}
		}()
	}
	ready.Wait()
	for f := 1; f <= frames; f++ {
		for i := 0; i < runs; i++ {
			mustSave(t, st, batch(id(i), f))
		}
		runtime.Gosched()
	}
	for i := 0; i < runs; i++ {
		mustSave(t, st, end(id(i), StateDone))
	}
	close(stop)
	wg.Wait()
	for _, rec := range st.List() {
		if rec.State != StateDone || len(rec.Trace) != frames+1 {
			t.Fatalf("%s folded to %s with %d trace lines; want done, %d", rec.ID, rec.State, len(rec.Trace), frames+1)
		}
	}
}
