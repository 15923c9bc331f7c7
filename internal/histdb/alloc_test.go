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
// framed copy of it — and in 7 allocations all told: naming the active
// segment is not one of them, nor is re-deriving the family key of a
// record whose spec did not change.
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
	if n := testing.AllocsPerRun(runs, save); n > 7 {
		t.Errorf("Save allocates %.0f times, want <= 7", n)
	}
}

// TestStoreReadAllocs: reads hand out the stored records themselves — Get
// and BySpec allocate nothing, BySpecFamily and ByComponent only the slice
// they return — on a MemStore and on the FileStore reading through one.
func TestStoreReadAllocs(t *testing.T) {
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	recs := benchRecords(8)
	for _, st := range []Store{NewMemStore(), fs} {
		for _, rec := range recs {
			if err := st.Save(rec); err != nil {
				t.Fatal(err)
			}
		}
		family := recs[0].Spec.FamilyKey()
		for _, c := range []struct {
			what string
			want float64
			read func()
		}{
			{"Get", 0, func() { st.Get(recs[3].ID) }},
			{"BySpec", 0, func() { st.BySpec(recs[5].SpecKey) }},
			{"BySpecFamily", 1, func() { st.BySpecFamily(family) }},
			{"ByComponent", 1, func() { st.ByComponent("voro") }},
		} {
			if got := testing.AllocsPerRun(50, c.read); got != c.want {
				t.Errorf("%T.%s allocates %.0f times, want %.0f", st, c.what, got, c.want)
			}
		}
	}
}

// TestDecodeFramedAllocs: decoding a served record's frame allocates once
// per sample configuration, plus a fixed handful — the record, its strings,
// its result and sample slices, and its trace: one backing array for every
// line and the slice of lines — not once per trace line or per slice growth.
func TestDecodeFramedAllocs(t *testing.T) {
	rec := servedRecords(1)[0]
	line, err := encodeFramed(recordFrame, rec)
	if err != nil {
		t.Fatal(err)
	}
	line = line[:len(line)-1]
	cfgs := 1 + len(rec.Result.Samples) // Best, then every sample's
	for _, cs := range rec.Result.ComponentSamples {
		cfgs += len(cs)
	}
	const fixed = 20
	n := testing.AllocsPerRun(50, func() {
		if _, err := decodeFramed(line); err != nil {
			t.Fatal(err)
		}
	})
	if n > float64(cfgs+fixed) {
		t.Errorf("decoding a %d-byte frame with %d configurations allocates %.0f times, want <= %d", len(line), cfgs, n, cfgs+fixed)
	}
}
