package histdb

import (
	"fmt"
	"path/filepath"
	"testing"
)

// benchRecords synthesizes n finished runs with a realistic payload: a
// distinct spec each plus a 50-entry checkpoint map (the collector cache
// snapshot that dominates real record sizes).
func benchRecords(n int) []*RunRecord {
	recs := make([]*RunRecord, n)
	for i := range recs {
		cp := make(map[string]float64, 50)
		for j := 0; j < 50; j++ {
			cp[fmt.Sprintf("w:%d:%d", i, j)] = float64(i*50+j) * 0.25
		}
		spec := Spec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 50, Pool: 2000, Seed: uint64(i + 1)}
		recs[i] = &RunRecord{
			ID:         fmt.Sprintf("run-%06d", i+1),
			Spec:       spec,
			SpecKey:    spec.Key(),
			State:      StateDone,
			Checkpoint: cp,
		}
	}
	return recs
}

// BenchmarkReplay10k prices opening a 10 000-run history database: a cold
// open of the segmented store (CRC-verified framed records across rolled
// segment files) and of the same store after Compact (one snapshot
// segment, live records only).
func BenchmarkReplay10k(b *testing.B) {
	const n = 10_000
	recs := benchRecords(n)

	open := func(b *testing.B, dir string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			st, err := OpenFileStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			got := len(st.List())
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			if got != n {
				b.Fatalf("replayed %d records, want %d", got, n)
			}
		}
	}

	build := func(b *testing.B, compact bool) string {
		b.Helper()
		dir := filepath.Join(b.TempDir(), "runs.db")
		st, err := OpenFileStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := st.Save(r); err != nil {
				b.Fatal(err)
			}
		}
		if compact {
			if err := st.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}

	b.Run("segmented", func(b *testing.B) {
		dir := build(b, false)
		b.ResetTimer()
		open(b, dir)
	})
	b.Run("segmented-compacted", func(b *testing.B) {
		dir := build(b, true)
		b.ResetTimer()
		open(b, dir)
	})
}

// BenchmarkAppend10k prices writing the same 10 000 runs: the store's
// framed buffered appends, isolated from tuning work.
func BenchmarkAppend10k(b *testing.B) {
	recs := benchRecords(10_000)
	for i := 0; i < b.N; i++ {
		st, err := OpenFileStore(filepath.Join(b.TempDir(), "runs.db"))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := st.Save(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
