package dispatch

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ceal/internal/cluster"
)

// recordingDispatcher measures with fakeEval scaled by f, keeps every item
// it was sent, and fails every batch while fail is set (or answers -1 to
// every item while negative is).
type recordingDispatcher struct {
	f              float64
	fail, negative bool
	got            []Item
}

func (d *recordingDispatcher) Dispatch(ctx context.Context, batch []Item) ([]Measurement, error) {
	if d.fail {
		return nil, errors.New("worker lost")
	}
	d.got = append(d.got, batch...)
	ms, err := NewLocal(fakeEval{}, nil).Dispatch(ctx, batch)
	for i := range ms {
		ms[i].Value *= d.f
		if d.negative {
			ms[i].Value = -1
		}
	}
	return ms, err
}

func seqs(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.Seq
	}
	return out
}

// TestJournal: a journaled dispatcher serves what it holds, forwards only
// the rest with their own Seqs, keys nominal items exactly as the collector
// always has, keeps loads apart to the last bit, and records nothing from
// a batch that failed.
func TestJournal(t *testing.T) {
	ctx := context.Background()
	batch := testBatch(9)

	// A fresh journal forwards the whole batch and records it.
	jr := NewJournal(nil)
	d := &recordingDispatcher{f: 1}
	want := dispatchValues(t, jr.Wrap(nil, d), batch)
	if len(d.got) != len(batch) {
		t.Fatalf("fresh journal forwarded %d of %d items", len(d.got), len(batch))
	}

	// Nominal keys are the collector's: w:<cfg>, c<j>:<cfg>, c<j>:fixed.
	var keys, wantKeys []string
	for k := range jr.Values() {
		keys = append(keys, k)
	}
	for _, it := range batch {
		switch {
		case it.Kind == KindWorkflow:
			wantKeys = append(wantKeys, "w:"+it.Cfg.Key())
		case it.Cfg == nil:
			wantKeys = append(wantKeys, fmt.Sprintf("c%d:fixed", it.Component))
		default:
			wantKeys = append(wantKeys, fmt.Sprintf("c%d:%s", it.Component, it.Cfg.Key()))
		}
	}
	slices.Sort(keys)
	slices.Sort(wantKeys)
	wantKeys = slices.Compact(wantKeys)
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("journal keys %v, want the collector's %v", keys, wantKeys)
	}

	// A resumed journal serves every item it holds: d sees none of them.
	resumed := NewJournal(jr.Values())
	d2 := &recordingDispatcher{f: 1}
	if got := dispatchValues(t, resumed.Wrap(nil, d2), batch); !reflect.DeepEqual(got, want) {
		t.Fatalf("served values %v, want %v", got, want)
	}
	if len(d2.got) != 0 {
		t.Fatalf("journaled items reached the dispatcher: %v", d2.got)
	}

	// A mixed batch: new items go to d with their own Seqs, and the reply
	// answers every Seq once (dispatchValues runs ByIndex).
	mixed := append(testBatch(9), testBatch(11)[9:]...)
	for i := range mixed {
		mixed[i].Seq = 100 + 3*i
	}
	dispatchValues(t, resumed.Wrap(nil, d2), mixed)
	if got, want := seqs(d2.got), seqs(mixed[9:]); !reflect.DeepEqual(got, want) {
		t.Fatalf("forwarded seqs %v, want the new items' own %v", got, want)
	}

	// Two loads never share a value, even a last bit apart.
	one, next := cluster.Load{ComputeSlowdown: 1}, cluster.Load{ComputeSlowdown: math.Nextafter(1, 2)}
	for i, ld := range []cluster.Load{one, next} {
		dl := &recordingDispatcher{f: float64(i + 2)}
		got := dispatchValues(t, jr.Wrap(&ld, dl), batch)
		if len(dl.got) != len(batch) || got[0] != want[0]*dl.f {
			t.Fatalf("load %+v: served %d items from another condition (value %v)", ld, len(batch)-len(dl.got), got[0])
		}
	}
	if n := len(jr.Values()); n != 3*len(wantKeys) {
		t.Fatalf("journal holds %d values, want %d (one per condition and item)", n, 3*len(wantKeys))
	}
	// A zero load is the nominal condition.
	if dispatchValues(t, resumed.Wrap(&cluster.Load{}, d2), batch); len(d2.got) != 2 {
		t.Fatalf("a zero load missed the nominal values: %d items forwarded", len(d2.got)-2)
	}

	// A failed batch, or one holding a value no run produces, records nothing.
	before := jr.Values()
	fresh := testBatch(11)[9:]
	for _, bad := range []*recordingDispatcher{{fail: true}, {f: 1, negative: true}} {
		if _, err := jr.Wrap(nil, bad).Dispatch(ctx, fresh); err == nil {
			t.Fatalf("%+v: batch succeeded", bad)
		}
		if after := jr.Values(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%+v: a failed batch was recorded", bad)
		}
	}
}

// TestJournalConcurrent: batches dispatched from several goroutines, under
// two conditions, while the checkpoint is copied, all land once per key.
func TestJournalConcurrent(t *testing.T) {
	jr := NewJournal(nil)
	loads := []*cluster.Load{nil, {FabricContention: 0.5}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := jr.Wrap(loads[g%2], NewLocal(fakeEval{}, &Runner{Workers: 2}))
			for i := 0; i < 20; i++ {
				if _, err := d.Dispatch(context.Background(), testBatch(3+i%7)); err != nil {
					t.Error(err)
				}
				jr.Values()
			}
		}()
	}
	wg.Wait()
	if n, want := len(jr.Values()), 2*7; n != want {
		t.Fatalf("journal holds %d values, want %d", n, want)
	}
}

// TestJournalSince: Since reads what was journaled past a mark — never the
// checkpoint the journal started from — and its marks chain, so the reads
// between them add up to everything journaled.
func TestJournalSince(t *testing.T) {
	ctx := context.Background()
	seed := NewJournal(nil)
	dispatchValues(t, seed.Wrap(nil, &recordingDispatcher{f: 1}), testBatch(3))

	jr := NewJournal(seed.Values())
	if got, mark := jr.Since(0); got != nil || mark != 0 {
		t.Fatalf("a resumed journal's checkpoint came back as new: %v, mark %d", got, mark)
	}
	d := jr.Wrap(nil, &recordingDispatcher{f: 1})
	all := make(map[string]float64)
	mark := 0
	for _, n := range []int{6, 9, 9} { // the last batch is all held: nothing new
		if _, err := d.Dispatch(ctx, testBatch(n)); err != nil {
			t.Fatal(err)
		}
		var got map[string]float64
		got, mark = jr.Since(mark)
		for k, v := range got {
			if _, dup := all[k]; dup {
				t.Fatalf("%s read twice", k)
			}
			all[k] = v
		}
	}
	maps.Copy(all, seed.Values())
	if want := jr.Values(); !reflect.DeepEqual(all, want) {
		t.Fatalf("seed plus reads since marks = %v, want %v", all, want)
	}
}
