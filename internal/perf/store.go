package perf

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ceal/internal/histdb"
	"ceal/internal/live"
	"ceal/internal/service"
	"ceal/internal/tuner"
)

// storeWorkload uses the history database every way the service and warm
// start do — append, replay, point read, family scan, upsert, compaction —
// on records of realistic size: real finished-run records (result with
// pool scores, trace) cloned under distinct IDs, seeds and spec keys.
type storeWorkload struct {
	o   Options
	chk *checker
	n   int   // records per round
	gen []job // the jobs whose records are cloned

	base    []*histdb.RunRecord
	recs    []*histdb.RunRecord
	digests [][32]byte
}

func newStore(o Options, chk *checker) *storeWorkload {
	// Twelve base records: the workload's quality ratios are theirs, and six
	// left them 14% apart between benchmark seeds.
	w := &storeWorkload{o: o, chk: chk, n: 1000, gen: makeJobs(o.Seed, 4, 0, 0)}
	if o.Tiny {
		w.n, w.gen = 30, makeJobs(o.Seed, 1, 200, 0)
	}
	return w
}

func (w *storeWorkload) jobNames() []string { return []string{"round"} }

func (w *storeWorkload) close() {}

// setup produces the base records by running the generator jobs through a
// service manager — so they are exactly what the service persists — and
// clones them to n records.
func (w *storeWorkload) setup() error {
	mgr := service.NewManager(service.Options{Workers: procs()})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer mgr.Shutdown(ctx)
	w.base = w.base[:0]
	for _, j := range w.gen {
		rec, _, err := mgr.Submit(j.spec)
		if err != nil {
			return err
		}
		if err := mgr.Wait(ctx, rec.ID); err != nil {
			return err
		}
		done, ok := mgr.Get(rec.ID)
		if !ok || done.State != histdb.StateDone {
			return fmt.Errorf("generator job %s did not finish", j.name)
		}
		w.base = append(w.base, done)
	}
	w.recs = make([]*histdb.RunRecord, w.n)
	w.digests = make([][32]byte, w.n)
	for i := range w.recs {
		rec := w.base[i%len(w.base)].Clone()
		rec.ID = fmt.Sprintf("run-%06d", i+1)
		rec.Spec.Seed = w.o.Seed*1000000 + uint64(i) + 1
		rec.SpecKey = rec.Spec.Key()
		w.recs[i] = rec
		d, err := recordDigest(rec)
		if err != nil {
			return err
		}
		w.digests[i] = d
	}
	return nil
}

func recordDigest(rec *histdb.RunRecord) ([32]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// A single BySpec is shorter than the clock's resolution, so lookupBatch
// lookups share one clock reading, and lookupPasses passes over all records
// give the median enough batches to be steady.
const (
	lookupBatch  = 50
	lookupPasses = 10
)

func (w *storeWorkload) round(*tracer) (round, error) {
	dir, err := tempDir(".ceal-bench-store-*")
	if err != nil {
		return round{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "runs.db")
	n := float64(w.n)
	r := round{extra: map[string]float64{}, layer: map[string]float64{}}

	// phase times fn into the round's window and returns its wall time;
	// the checks between phases stay outside.
	var failed error
	phase := func(fn func() error) time.Duration {
		if failed != nil {
			return 0
		}
		u := window(func() { failed = fn() })
		r.use.wall += u.wall
		r.use.cpu += u.cpu
		r.use.alloc += u.alloc
		r.use.mallocs += u.mallocs
		r.use.gcCycles += u.gcCycles
		r.use.gcPause += u.gcPause
		return u.wall
	}
	var st *histdb.FileStore
	open := func() error {
		var err error
		st, err = histdb.OpenFileStore(path)
		return err
	}
	count := func(what string) {
		w.chk.attempt()
		if failed == nil {
			if got := len(st.List()); got != w.n {
				w.chk.failf("store holds %d records %s, want %d", got, what, w.n)
			}
		}
	}
	same := func(i int, got *histdb.RunRecord, ok bool, what string) {
		w.chk.attempt()
		if !ok {
			w.chk.failf("record %s missing %s", w.recs[i].ID, what)
			return
		}
		if d, err := recordDigest(got); err != nil || d != w.digests[i] {
			w.chk.failf("record %s read back %s differs from what was saved (%v)", w.recs[i].ID, what, err)
		}
	}

	// Append into an empty store.
	appendT := phase(func() error {
		if err := open(); err != nil {
			return err
		}
		for _, rec := range w.recs {
			if err := st.Save(rec); err != nil {
				return err
			}
		}
		return st.Close()
	})

	// Cold open: CRC-checked replay of the whole log.
	var logBytes int64
	if segs, err := filepath.Glob(filepath.Join(path, "*")); err == nil {
		for _, s := range segs {
			if fi, err := os.Stat(s); err == nil {
				logBytes += fi.Size()
			}
		}
	}
	replayT := phase(open)
	count("after replay")

	// Point lookups, family scans, warm-start assembly.
	got := make([]*histdb.RunRecord, w.n)
	found := make([]bool, w.n)
	var lookups []float64
	phase(func() error {
		for pass := 0; pass < lookupPasses; pass++ {
			for lo := 0; lo < w.n; lo += lookupBatch {
				hi := min(lo+lookupBatch, w.n)
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					got[i], found[i] = st.BySpec(w.recs[i].SpecKey)
				}
				lookups = append(lookups, float64(time.Since(t0))/1e3/float64(hi-lo))
			}
		}
		return nil
	})
	families, warms := 100, 30
	if w.o.Tiny {
		families, warms = 10, 3
	}
	familyT := phase(func() error {
		for i := 0; i < families; i++ {
			st.BySpecFamily(w.base[i%len(w.base)].Spec.FamilyKey())
		}
		return nil
	})
	warmT := phase(func() error {
		for i := 0; i < warms; i++ {
			if live.WarmFromHistory(st, w.base[i%len(w.base)].Spec) == nil {
				return fmt.Errorf("warm start found no history")
			}
		}
		return nil
	})
	if failed == nil {
		for i := range got {
			same(i, got[i], found[i], "by spec")
		}
	}

	// Upsert a fifth of the records, then reopen the uncompacted log.
	phase(func() error {
		for i := 0; i < w.n; i += 5 {
			if err := st.Save(w.recs[i]); err != nil {
				return err
			}
		}
		return st.Close()
	})
	segments, _ := filepath.Glob(filepath.Join(path, "seg-*.log"))
	openT := phase(open)
	count("after upsert and reopen")

	compactT := phase(func() error {
		if err := st.Compact(); err != nil {
			return err
		}
		return st.Close()
	})
	phase(open)
	count("after compaction")
	if failed == nil {
		for i, rec := range w.recs {
			g, ok := st.Get(rec.ID)
			same(i, g, ok, "after compaction")
		}
		failed = st.Close()
	}
	if failed != nil {
		return round{}, failed
	}

	r.jobs = []time.Duration{r.use.wall}
	r.extra["store_append_krec_s"] = n / 1e3 / appendT.Seconds()
	r.extra["store_open_ms"] = ms(openT)
	r.extra["store_lookup_p50_us"] = median(lookups)
	r.layer["histdb.append.us_per_rec"] = float64(appendT) / 1e3 / n
	r.layer["histdb.replay.us_per_rec"] = float64(replayT) / 1e3 / n
	r.layer["histdb.replay.mb_per_s"] = float64(logBytes) / (1 << 20) / replayT.Seconds()
	r.layer["histdb.family.us"] = float64(familyT) / 1e3 / float64(families)
	r.layer["histdb.warm_assemble.ms"] = ms(warmT) / float64(warms)
	r.layer["histdb.compact.ms"] = ms(compactT)
	r.layer["histdb.segments"] = float64(len(segments))
	return r, nil
}

// finish reports the quality of the runs whose records fill the store.
func (w *storeWorkload) finish(metrics map[string]float64) error {
	specs := make([]histdb.Spec, len(w.base))
	results := make([]*tuner.Result, len(w.base))
	for i, rec := range w.base {
		specs[i], results[i] = rec.Spec, rec.Result
	}
	return qualityMetrics(metrics, specs, results)
}
