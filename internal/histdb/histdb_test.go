package histdb

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ceal/internal/tuner"
)

func doneRec(id string, spec Spec, components ...string) *RunRecord {
	n := spec.Normalize()
	return &RunRecord{
		ID:         id,
		Spec:       n,
		SpecKey:    n.Key(),
		State:      StateDone,
		Components: components,
		Result:     &tuner.Result{SwitchIteration: -1},
		FinishedAt: time.Unix(5000, 0).UTC(),
	}
}

func TestMemStoreListDeterministicOrder(t *testing.T) {
	s := NewMemStore()
	// Save in an order that disagrees with lexical ID order: List must follow
	// creation sequence, not ID.
	ids := []string{"run-000003", "run-000001", "run-000002"}
	for _, id := range ids {
		if err := s.Save(&RunRecord{ID: id, State: StateQueued}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-saving an existing ID must not move it.
	if err := s.Save(&RunRecord{ID: "run-000003", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		list := s.List()
		if len(list) != 3 {
			t.Fatalf("List len = %d", len(list))
		}
		for j, id := range ids {
			if list[j].ID != id {
				t.Fatalf("List[%d] = %s, want %s (creation order)", j, list[j].ID, id)
			}
		}
	}
}

func TestFileStoreListOrderSurvivesReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"run-000002", "run-000001"}
	for _, id := range ids {
		if err := s.Save(&RunRecord{ID: id, State: StateQueued}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	list := reopened.List()
	if len(list) != 2 || list[0].ID != "run-000002" || list[1].ID != "run-000001" {
		t.Fatalf("reloaded List order = %v, want log order", []string{list[0].ID, list[1].ID})
	}
}

func TestQueries(t *testing.T) {
	s := NewMemStore()
	lv := doneRec("run-000001", Spec{Benchmark: "LV"}, "lammps", "voro")
	hs := doneRec("run-000002", Spec{Benchmark: "HS"}, "heat_transfer", "stage_write")
	lv2 := doneRec("run-000003", Spec{Benchmark: "lv", Seed: 9}, "lammps", "voro")
	running := &RunRecord{ID: "run-000004", Spec: Spec{Benchmark: "LV"}.Normalize(), State: StateRunning, Components: []string{"lammps", "voro"}}
	for _, rec := range []*RunRecord{lv, hs, lv2, running} {
		if err := s.Save(rec); err != nil {
			t.Fatal(err)
		}
	}

	byWf := Select(s, Query{Workflow: "lv"})
	if len(byWf) != 2 || byWf[0].ID != "run-000001" || byWf[1].ID != "run-000003" {
		t.Fatalf("Select(Workflow: lv) = %v", recIDs(byWf))
	}
	if got := s.ByComponent("lammps"); len(got) != 2 {
		t.Fatalf("ByComponent(lammps) = %v", recIDs(got))
	}
	if got := s.ByComponent("heat_transfer"); len(got) != 1 || got[0].ID != "run-000002" {
		t.Fatalf("ByComponent(heat_transfer) = %v", recIDs(got))
	}
	// Seed differs between lv and lv2 but FamilyKey ignores it.
	fam := Spec{Benchmark: "LV"}.FamilyKey()
	if got := s.BySpecFamily(fam); len(got) != 2 {
		t.Fatalf("BySpecFamily(%s) = %v", fam, recIDs(got))
	}
	// Conjunctive Select: workflow + component must both match.
	if got := Select(s, Query{Workflow: "HS", Component: "lammps"}); len(got) != 0 {
		t.Fatalf("conjunctive query matched %v", recIDs(got))
	}
	if got := Select(s, Query{Workflow: "LV", Component: "voro", Family: fam}); len(got) != 2 {
		t.Fatalf("three-axis query = %v", recIDs(got))
	}
}

// TestUpsertFamily: an upsert keeps a record's family when its spec is
// unchanged and moves it when the spec changes.
func TestUpsertFamily(t *testing.T) {
	s := NewMemStore()
	lv, hs := Spec{Benchmark: "LV"}.FamilyKey(), Spec{Benchmark: "HS"}.FamilyKey()
	for i, spec := range []Spec{{Benchmark: "LV"}, {Benchmark: "LV"}, {Benchmark: "HS"}, {Benchmark: "HS"}} {
		if err := s.Save(doneRec("run-000001", spec)); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{lv: 1, hs: 0}
		if i >= 2 {
			want = map[string]int{lv: 0, hs: 1}
		}
		for fam, n := range want {
			if got := s.BySpecFamily(fam); len(got) != n {
				t.Fatalf("save %d (%s): BySpecFamily(%s) = %v, want %d", i, spec.Benchmark, fam, recIDs(got), n)
			}
		}
	}
}

func recIDs(recs []*RunRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func TestSpecKeys(t *testing.T) {
	cold := Spec{Benchmark: "lv", Seed: 3}
	warm := Spec{Benchmark: "LV", Seed: 3, WarmStart: true}
	if cold.Key() == warm.Key() {
		t.Fatalf("warm and cold specs share key %s", cold.Key())
	}
	if !strings.HasSuffix(warm.Key(), "/warm") {
		t.Fatalf("warm key = %s, want /warm suffix", warm.Key())
	}
	if cold.FamilyKey() != warm.FamilyKey() {
		t.Fatalf("family keys differ: %s vs %s", cold.FamilyKey(), warm.FamilyKey())
	}
	other := Spec{Benchmark: "LV", Seed: 4, Budget: 10, Workers: 8}
	if cold.FamilyKey() != other.FamilyKey() {
		t.Fatal("FamilyKey must ignore seed, budget and workers")
	}
	if cold.Key() == other.Key() {
		t.Fatal("Key must distinguish seed and budget")
	}
}

func TestSeqOf(t *testing.T) {
	for _, c := range []struct {
		id, replica string
		n           int
		own         bool
	}{
		{"run-000007", "", 7, true},
		{"run-a-000002", "a", 2, true},
		{"run-a-000002", "", 0, false},
		{"run-000007", "a", 0, false},
		{"run-ab-000003", "a", 0, false},
		{"other-9", "", 0, false},
	} {
		if n, own := SeqOf(c.id, c.replica); n != c.n || own != c.own {
			t.Errorf("SeqOf(%q, %q) = %d, %v; want %d, %v", c.id, c.replica, n, own, c.n, c.own)
		}
	}
}

func TestOpenTolerantOfCrashTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&RunRecord{ID: "run-000001", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// An unterminated tail is a crash artifact from an interrupted append:
	// the consistent prefix must load.
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badc0de {"id":"run-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err = OpenFileStore(path)
	if err != nil {
		t.Fatalf("crash tail rejected: %v", err)
	}
	if _, ok := s.Get("run-000001"); !ok {
		t.Fatal("prefix record lost")
	}
	// Appending after recovery must yield a loadable log again.
	if err := s.Save(&RunRecord{ID: "run-000002", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = OpenFileStore(path)
	if err != nil {
		t.Fatalf("log unloadable after post-recovery append: %v", err)
	}
	defer s.Close()
	if got := len(s.List()); got != 2 {
		t.Fatalf("reloaded %d records, want 2", got)
	}
}

// segmentRecords reads every framed record line across the store
// directory's segments, in replay order.
func segmentRecords(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".log") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				lines = append(lines, line)
			}
		}
	}
	return lines
}

func TestCompactCrashLeavesOriginalIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r := &RunRecord{ID: "run-000001", Spec: Spec{Benchmark: "LV"}.Normalize(), State: StateQueued}
	for _, st := range []RunState{StateQueued, StateRunning, StateDone} {
		r.State = st
		if err := s.Save(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := segmentRecords(t, path)
	if len(before) != 3 {
		t.Fatalf("lifecycle left %d records, want 3", len(before))
	}

	// Simulate a compact that crashed before the atomic rename: a truncated
	// temp file sits next to untouched segments.
	stray := filepath.Join(path, "seg-00000042-deadbeef.log.tmp")
	if err := os.WriteFile(stray, []byte(`{"id":"run-0`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open with stray temp file: %v", err)
	}
	got, ok := reopened.Get("run-000001")
	if !ok || got.State != StateDone {
		t.Fatalf("replay after interrupted compact = %+v, %v", got, ok)
	}
	if after := segmentRecords(t, path); !reflect.DeepEqual(before, after) {
		t.Fatal("interrupted compact mutated the original segments")
	}

	// A real Compact sweeps the stray temp file and shrinks the store to
	// one record per run.
	if err := reopened.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := segmentRecords(t, path); len(recs) != 1 {
		t.Fatalf("compacted store has %d records, want 1", len(recs))
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after compact: %v", err)
	}
	final, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if got, ok := final.Get("run-000001"); !ok || got.State != StateDone {
		t.Fatalf("post-compact reload = %+v, %v", got, ok)
	}
}

func TestCheckpointAndWarmRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := &RunRecord{
		ID:         "run-000001",
		Spec:       Spec{Benchmark: "LV"}.Normalize(),
		State:      StateFailed,
		Checkpoint: map[string]float64{"w:1,2": 3.5, "c0:4": 7.25},
		Warm: &tuner.WarmStart{
			Samples:          []tuner.Sample{{Cfg: []int{1, 2}, Value: 3.5}},
			ComponentSamples: [][]tuner.Sample{{{Cfg: []int{4}, Value: 7.25}}},
		},
	}
	if err := s.Save(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, ok := reopened.Get("run-000001")
	if !ok {
		t.Fatal("record lost")
	}
	if got.Checkpoint["w:1,2"] != 3.5 || got.Checkpoint["c0:4"] != 7.25 {
		t.Fatalf("checkpoint lost: %v", got.Checkpoint)
	}
	if got.Warm == nil || len(got.Warm.Samples) != 1 || len(got.Warm.ComponentSamples) != 1 {
		t.Fatalf("warm data lost: %+v", got.Warm)
	}
	if got.Warm.Samples[0].Value != 3.5 {
		t.Fatalf("warm sample = %+v", got.Warm.Samples[0])
	}
}
