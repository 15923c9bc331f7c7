package histdb

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// digests is a record list's identity: each ID with the hash of its JSON.
func digests(t testing.TB, recs []*RunRecord) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = fmt.Sprintf("%s %x", rec.ID, sha256.Sum256(mustJSON(t, rec)))
	}
	return out
}

// TestReplayIdenticalAtAnyGOMAXPROCS: frames are decoded on every processor
// but applied in log order, so a multi-segment log with upserts opens to the
// same List — order and bytes — however many processors decode it.
func TestReplayIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 3))
	dir := filepath.Join(t.TempDir(), "runs")
	w, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 16 << 10
	for i := 0; i < 300; i++ {
		// A third of the saves re-save an earlier ID with fresh content.
		id := i
		if i > 10 && rng.IntN(3) == 0 {
			id = rng.IntN(i)
		}
		if err := w.Save(genRecord(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	want := digests(t, w.List())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")); len(segs) < 4 {
		t.Fatalf("fixture rolled only %d segments", len(segs))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		s, err := OpenFileStore(dir)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		got := digests(t, s.List())
		s.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: replayed List differs from the writer's", procs)
		}
	}
}

// TestMidSegmentDamageKeepsOffsetsAndMessage: a damaged frame with an
// intact one after it fails a strict open with the offset of the damage in
// the message, and leaves a lenient Refresh parked at that offset — the
// intact frames past it decoded by the fan-out are discarded, not applied.
func TestMidSegmentDamageKeepsOffsetsAndMessage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	r, err := OpenFileStore(dir) // a reader that opened before the damage
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var frames [][]byte
	for i := 1; i <= 5; i++ {
		line, err := encodeFramed(nil, recordFrame, doneRec(fmt.Sprintf("run-%06d", i), Spec{Benchmark: "LV", Seed: uint64(i)}))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, line)
	}
	frames[2][20] ^= 0x01 // damage the third frame's payload
	var log []byte
	for _, f := range frames {
		log = append(log, f...)
	}
	name := segmentName(1, "0badc0de")
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	damageAt := int64(len(frames[0]) + len(frames[1]))

	_, err = OpenFileStore(dir)
	want := fmt.Sprintf("histdb: %s: corrupt record at offset %d followed by intact records", path, damageAt)
	if err == nil || err.Error() != want {
		t.Fatalf("strict open = %v, want %q", err, want)
	}

	for pass := 0; pass < 2; pass++ { // the second Refresh re-reads from the parked offset
		if err := r.Refresh(); err != nil {
			t.Fatalf("lenient Refresh errored: %v", err)
		}
		if ids := recIDs(r.List()); !reflect.DeepEqual(ids, []string{"run-000001", "run-000002"}) {
			t.Fatalf("Refresh applied %v, want the two frames before the damage", ids)
		}
		if got := r.offsets[name]; got != damageAt {
			t.Fatalf("Refresh parked at offset %d, want %d", got, damageAt)
		}
	}
}

// sortOracle is the in-memory view as it was before records were kept in
// first-save order: a map, a sequence number per ID, and every query a
// clone-everything, sort, then filter.
type sortOracle struct {
	byID map[string]*RunRecord
	seq  map[string]int
}

func (o *sortOracle) save(rec *RunRecord) {
	if _, ok := o.seq[rec.ID]; !ok {
		o.seq[rec.ID] = len(o.seq)
	}
	o.byID[rec.ID] = rec.Clone()
}

func (o *sortOracle) list() []*RunRecord {
	out := make([]*RunRecord, 0, len(o.byID))
	for _, rec := range o.byID {
		out = append(out, rec.Clone())
	}
	sort.Slice(out, func(a, b int) bool { return o.seq[out[a].ID] < o.seq[out[b].ID] })
	return out
}

// TestMemStoreMatchesSortOracle: on randomized save/upsert sequences List,
// BySpecFamily and ByComponent return exactly what sort-then-filter did.
func TestMemStoreMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 4))
	states := []RunState{StateQueued, StateRunning, StateDone, StateDone, StateFailed, StateCancelled}
	comps := [][]string{{"lammps", "voro"}, {"heat_transfer", "stage_write"}, {"gray_scott", "pdf_calc"}, nil}
	for trial := 0; trial < 20; trial++ {
		s := NewMemStore()
		o := &sortOracle{byID: map[string]*RunRecord{}, seq: map[string]int{}}
		families := map[string]bool{"": true, "no/such/family/p1": true}
		for op := 0; op < 120; op++ {
			spec := Spec{
				Benchmark: []string{"LV", "hs", " gp "}[rng.IntN(3)],
				Algorithm: []string{"", "ceal", "RS"}[rng.IntN(3)],
				Pool:      []int{0, 2000, 300}[rng.IntN(3)],
				Mode:      []string{"", ModeContinuous}[rng.IntN(2)],
				Seed:      rng.Uint64N(5),
			}
			rec := &RunRecord{
				ID:         fmt.Sprintf("run-%06d", rng.IntN(40)), // collisions are the upserts
				Spec:       spec,
				SpecKey:    spec.Key(),
				State:      states[rng.IntN(len(states))],
				Components: comps[rng.IntN(len(comps))],
				Error:      fmt.Sprintf("op %d", op), // tells an upsert from what it replaced
			}
			families[spec.FamilyKey()] = true
			if err := s.Save(rec); err != nil {
				t.Fatal(err)
			}
			o.save(rec)
			if op%10 != 9 {
				continue
			}
			check := func(what string, got, want []*RunRecord) {
				t.Helper()
				if !reflect.DeepEqual(digests(t, got), digests(t, want)) {
					t.Fatalf("trial %d op %d: %s = %v, oracle %v", trial, op, what, recIDs(got), recIDs(want))
				}
			}
			check("List", s.List(), o.list())
			for fam := range families {
				check("BySpecFamily("+fam+")", s.BySpecFamily(fam), selectRecords(o.list(), Query{Family: fam}))
			}
			for _, name := range []string{"", "lammps", "voro", "stage_write", "pdf_calc", "nope"} {
				check("ByComponent("+name+")", s.ByComponent(name), selectRecords(o.list(), Query{Component: name}))
			}
		}
	}
}

// TestConcurrentSaveQueryRefresh drives Save (which now appends and updates
// the view under one lock) from several goroutines beside queries, Refresh
// and a second handle's replay fan-out; run under -race. The log must reopen
// to exactly what the writer's view holds.
func TestConcurrentSaveQueryRefresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	w, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 8 << 10
	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const writers, perWriter = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(22, uint64(g)))
			for i := 0; i < perWriter; i++ {
				// Each writer owns its IDs and re-saves some of them.
				if err := w.Save(genRecord(rng, g*1000+rng.IntN(i+1))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.List()
			w.BySpecFamily(Spec{Benchmark: "LV"}.FamilyKey())
			w.ByComponent("voro")
			if err := w.Refresh(); err != nil {
				t.Error(err)
			}
			if err := r.Refresh(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	want := digests(t, w.List())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := digests(t, reopened.List()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened log holds %d records that differ from the writer's %d", len(got), len(want))
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := digests(t, r.List()); !reflect.DeepEqual(got, want) {
		t.Fatalf("the refreshed reader's view differs from the writer's")
	}
}
