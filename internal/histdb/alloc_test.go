//go:build !race

package histdb

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestSaveAllocs: a Save encodes its frame into a recycled buffer, so all
// it allocates is the in-memory upsert's copy of the record: one allocation
// of at most 1 KiB, whatever the frame's length. Naming the active segment
// allocates nothing, nor does re-deriving the family key of a record whose
// spec did not change.
func TestSaveAllocs(t *testing.T) {
	st, err := OpenFileStore(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := servedRecords(1)[0]
	line, err := encodeFramed(nil, recordFrame, rec)
	if err != nil {
		t.Fatal(err)
	}
	save := func() {
		if err := st.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	save() // opens the segment, indexes the ID and grows a frame buffer
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		save()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > 1024 {
		t.Errorf("Save of a %d-byte frame allocates %.0f B, want <= 1024 B", len(line), got)
	}
	if n := testing.AllocsPerRun(runs, save); n > 1 {
		t.Errorf("Save allocates %.0f times, want <= 1", n)
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
	line, err := encodeFramed(nil, recordFrame, rec)
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
		if _, _, err := decodeFramed(line); err != nil {
			t.Fatal(err)
		}
	})
	if n > float64(cfgs+fixed) {
		t.Errorf("decoding a %d-byte frame with %d configurations allocates %.0f times, want <= %d", len(line), cfgs, n, cfgs+fixed)
	}
}
