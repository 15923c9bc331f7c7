package histdb

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/tuner"
)

// benchRecords synthesizes n finished runs shaped like an evaluation run's
// record for LV (a ~29 KB frame): 2000 pool scores — only runs that score
// the whole pool, as the experiment harness's do, carry them — 65 measured
// samples and a 37-line trace; a finished run's checkpoint is cleared.
// servedRecords drops the pool scores, as served and CLI runs do.
func benchRecords(n int) []*RunRecord {
	rng := rand.New(rand.NewPCG(1, 1))
	samples := func(k, dims int) []tuner.Sample {
		out := make([]tuner.Sample, k)
		for i := range out {
			cfg := make(cfgspace.Config, dims)
			for d := range cfg {
				cfg[d] = 1 + rng.IntN(600)
			}
			out[i] = tuner.Sample{Cfg: cfg, Value: rng.Float64() * 40}
		}
		return out
	}
	recs := make([]*RunRecord, n)
	for i := range recs {
		scores := make([]float64, 2000)
		for j := range scores {
			scores[j] = 2 + rng.Float64()*60
		}
		trace := make([]json.RawMessage, 37)
		for j := range trace {
			trace[j] = json.RawMessage(fmt.Sprintf(`{"event":"iteration_done","iteration":%d,"measured":7,"best_value":%v,"best_config":[232,35,1,89,25,1]}`, j, rng.Float64()*3))
		}
		spec := Spec{Benchmark: "LV", Algorithm: "ceal", Objective: "comp", Budget: 50, Pool: 2000, Seed: uint64(i + 1)}
		recs[i] = &RunRecord{
			ID:         fmt.Sprintf("run-%06d", i+1),
			Spec:       spec,
			SpecKey:    spec.Key(),
			State:      StateDone,
			Components: []string{"lammps", "voro"},
			Result: &tuner.Result{
				Best:             cfgspace.Config{232, 35, 1, 89, 25, 1},
				PoolScores:       scores,
				Samples:          samples(35, 6),
				ComponentSamples: [][]tuner.Sample{samples(15, 3), samples(15, 3)},
				CollectionCost:   1234.5,
				SwitchIteration:  1,
				Importance:       []float64{0.02, 0.03, 0.01, 0.48, 0.36, 0.05, 0.05},
			},
			Trace: trace,
		}
	}
	return recs
}

// servedRecords is benchRecords as served and CLI runs write them: no pool
// scores, a ~8 KB frame.
func servedRecords(n int) []*RunRecord {
	recs := benchRecords(n)
	for _, r := range recs {
		r.Result.PoolScores = nil
	}
	return recs
}

// BenchmarkReplay1k prices opening a 1000-run history database — what the
// ledger's histdb.replay.us_per_rec measures: a cold open of the segmented
// store (CRC-verified framed records across rolled segment files) and of
// the same store after Compact (one snapshot segment, live records only),
// of the ~8 KB records served and CLI runs write; and, as pool-scores, a
// cold open of evaluation runs' ~29 KB records.
func BenchmarkReplay1k(b *testing.B) {
	const n = 1000

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

	build := func(b *testing.B, recs []*RunRecord, compact bool) string {
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

	for _, c := range []struct {
		name    string
		recs    func(int) []*RunRecord
		compact bool
	}{
		{"segmented", servedRecords, false},
		{"segmented-compacted", servedRecords, true},
		{"pool-scores", benchRecords, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			dir := build(b, c.recs(n), c.compact)
			b.ResetTimer()
			open(b, dir)
		})
	}
}

// BenchmarkDecodeFramed prices decoding one served record's frame
// (decodeFramed: CRC check, then the one-pass canonical decoder) against
// json.Unmarshal of its payload, the reference it falls back to.
func BenchmarkDecodeFramed(b *testing.B) {
	line, err := encodeFramed(nil, recordFrame, servedRecords(1)[0])
	if err != nil {
		b.Fatal(err)
	}
	line = line[:len(line)-1]
	b.Run("canonical", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeFramed(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(line[9:], new(RunRecord)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppend1k prices writing the same 1000 runs — the ledger's
// histdb.append.us_per_rec: the store's framed buffered appends, isolated
// from tuning work: served, the ~8.6 KB frames served and CLI runs write;
// pool-scores, the ~29 KB frames of evaluation runs.
func BenchmarkAppend1k(b *testing.B) {
	appendAll := func(b *testing.B, recs []*RunRecord) {
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
	served, scored := servedRecords(1000), benchRecords(1000)
	b.Run("served", func(b *testing.B) { appendAll(b, served) })
	b.Run("pool-scores", func(b *testing.B) { appendAll(b, scored) })
}

// BenchmarkRunLifecycle prices checkpointing one served run on a FileStore:
// its queued and running records, 20 progress frames of three journal
// entries and two trace lines each, and its terminal frame. logB/op is the
// bytes a run appends; recordB is its finished record's JSON.
func BenchmarkRunLifecycle(b *testing.B) {
	run := servedRecords(1)[0]
	frames := make([]*Progress, 20)
	for i := range frames {
		p := &Progress{Checkpoint: make(map[string]float64), Trace: run.Trace[i%18*2 : i%18*2+2]}
		for j := 0; j < 3; j++ {
			p.Checkpoint[fmt.Sprintf("w:%d,%d,1,89,25,1", i, j)] = float64(i*3+j) / 7
		}
		frames[i] = p
	}
	dir := filepath.Join(b.TempDir(), "runs.db")
	st, err := OpenFileStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("run-%06d", i+1)
		rec := &RunRecord{ID: id, Spec: run.Spec, SpecKey: run.SpecKey, Components: run.Components, State: StateQueued}
		must(st.Save(rec))
		rec.State = StateRunning
		must(st.Save(rec))
		for _, p := range frames {
			p.ID = id
			must(st.SaveProgress(p))
		}
		must(st.SaveProgress(&Progress{ID: id, State: StateDone, Result: run.Result, Collector: &run.Collector, Trace: run.Trace[36:]}))
	}
	b.StopTimer()
	var logBytes int64
	for _, n := range st.offsets {
		logBytes += n
	}
	last, _ := st.Get(fmt.Sprintf("run-%06d", b.N))
	record, _ := json.Marshal(last)
	b.ReportMetric(float64(logBytes)/float64(b.N), "logB/op")
	b.ReportMetric(float64(len(record)), "recordB")
}

// BenchmarkEncodeFramed prices framing one served record: encodeFramed,
// whose canonical encoder writes the payload, against json.Encoder's frame
// of it, the reference encodeFramed falls back to.
func BenchmarkEncodeFramed(b *testing.B) {
	rec := servedRecords(1)[0]
	var line []byte
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if line, err = encodeFramed(line[:0], recordFrame, rec); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(line)))
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := frameWriter(append(line[:0], "crc32hex "...))
			if err := json.NewEncoder(&w).Encode(rec); err != nil {
				b.Fatal(err)
			}
			h := frameHeader(w[9:len(w)-1], recordFrame)
			line = append(w[:0], h[:]...)[:len(w)]
		}
		b.SetBytes(int64(len(line)))
	})
}

// BenchmarkCompact1k prices the ledger's histdb.compact.ms: compacting a
// reopened store of 1000 served runs, a fifth of them saved twice, into a
// snapshot of their 1000 frames, each encoded afresh.
func BenchmarkCompact1k(b *testing.B) {
	recs := servedRecords(1000)
	var upserts []*RunRecord
	for i := 0; i < len(recs); i += 5 {
		upserts = append(upserts, recs[i])
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "runs.db")
		st, err := OpenFileStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range append(recs, upserts...) {
			if err := st.Save(r); err != nil {
				b.Fatal(err)
			}
		}
		st.Close()
		if st, err = OpenFileStore(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}
