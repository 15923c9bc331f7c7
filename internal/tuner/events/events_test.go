package events

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// every returns one populated instance of each event type, in taxonomy order.
func every() []Event {
	return []Event{
		&RunStarted{Algorithm: "CEAL", Problem: "LV/comp", Budget: 50, PoolSize: 2000, Seed: 7},
		&BatchSelected{Iteration: 0, Phase: "seed", Size: 5},
		&BatchMeasured{Iteration: 0, Size: 5, CacheHits: 1, CacheMisses: 3, Coalesced: 1, Cost: 12.5},
		&ModelTrained{Iteration: 0, Model: "surrogate", Samples: 5},
		&SwitchDecision{Iteration: 3, HighRecall: 120, LowRecall: 80, Switched: true},
		&BiasEscape{Iteration: 3, Added: 2},
		&IterationDone{Iteration: 3, Measured: 20, BestValue: 1.5, BestConfig: []int{4, 2}},
		&Fallback{PoolIndex: 9},
		&RunFinished{Measured: 50, ComponentRuns: 12, CollectionCost: 900, BestValue: 1.5,
			BestConfig: []int{4, 2}, SwitchIteration: 2},
	}
}

// TestMarshalJSONAllKinds checks every event type serializes to a single
// JSON object whose leading "event" member names its kind and whose
// remaining members round-trip the payload.
func TestMarshalJSONAllKinds(t *testing.T) {
	for _, e := range every() {
		line, err := MarshalJSON(e)
		if err != nil {
			t.Fatalf("%T: %v", e, err)
		}
		if !strings.HasPrefix(string(line), `{"event":"`+string(e.Kind())+`"`) {
			t.Errorf("%T: line does not lead with its kind: %s", e, line)
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("%T: invalid JSON %s: %v", e, line, err)
		}
		if m["event"] != string(e.Kind()) {
			t.Errorf("%T: event member = %v, want %q", e, m["event"], e.Kind())
		}
		// Payload fields must survive the kind splice.
		var body map[string]any
		raw, _ := json.Marshal(e)
		_ = json.Unmarshal(raw, &body)
		for k, v := range body {
			got, ok := m[k]
			if !ok {
				t.Errorf("%T: member %q lost in splice", e, k)
				continue
			}
			gb, _ := json.Marshal(got)
			vb, _ := json.Marshal(v)
			if !bytes.Equal(gb, vb) {
				t.Errorf("%T: member %q = %s, want %s", e, k, gb, vb)
			}
		}
	}
}

// emptyEvent exercises MarshalJSON's no-fields splice path.
type emptyEvent struct{}

func (emptyEvent) Kind() Kind { return Kind("empty") }

func TestMarshalJSONEmptyPayload(t *testing.T) {
	line, err := MarshalJSON(emptyEvent{})
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != `{"event":"empty"}` {
		t.Errorf("line = %s", line)
	}
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("invalid JSON %s: %v", line, err)
	}
}

// TestJSONLWriter checks one-object-per-line streaming and that each line
// parses back to its event kind.
func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	evs := every()
	for _, e := range evs {
		w.OnEvent(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(evs) {
		t.Fatalf("%d lines, want %d", len(lines), len(evs))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if m["event"] != string(evs[i].Kind()) {
			t.Errorf("line %d: event = %v, want %q", i, m["event"], evs[i].Kind())
		}
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("sink failed")
}

// TestJSONLWriterErrFirstWins checks write errors are retained (first error
// wins) without ever surfacing into the run.
func TestJSONLWriterErrFirstWins(t *testing.T) {
	fw := &failingWriter{}
	w := NewJSONLWriter(fw)
	if err := w.Err(); err != nil {
		t.Fatalf("fresh writer has error %v", err)
	}
	w.OnEvent(&Fallback{PoolIndex: 1})
	first := w.Err()
	if first == nil {
		t.Fatal("write failure not retained")
	}
	w.OnEvent(&Fallback{PoolIndex: 2})
	if w.Err() != first {
		t.Error("later failure replaced the first error")
	}
	if fw.n != 2 {
		t.Errorf("writer invoked %d times, want 2 (errors must not stop the stream)", fw.n)
	}
}

// TestRecorder checks arrival-order retention and snapshot independence.
func TestRecorder(t *testing.T) {
	r := NewRecorder()
	evs := every()
	for _, e := range evs {
		r.OnEvent(e)
	}
	got := r.Events()
	if len(got) != len(evs) {
		t.Fatalf("recorded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d out of order: %T", i, got[i])
		}
	}
	// The snapshot must be detached from the recorder's internal slice.
	r.OnEvent(&Fallback{PoolIndex: 3})
	if len(got) != len(evs) {
		t.Error("Events() snapshot aliases the recorder")
	}
}

// TestMulti checks nil collapsing and fan-out.
func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live observers should be nil")
	}
	solo := NewRecorder()
	if Multi(nil, solo) != Observer(solo) {
		t.Error("Multi of one live observer should return it unwrapped")
	}
	a, b := NewRecorder(), NewRecorder()
	m := Multi(a, nil, b)
	m.OnEvent(&Fallback{PoolIndex: 4})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("fan-out delivered %d/%d events, want 1/1", len(a.Events()), len(b.Events()))
	}
}

// phaseSink is a PhaseObserver that counts what reaches it.
type phaseSink struct{ events, phases int }

func (p *phaseSink) OnEvent(Event)  { p.events++ }
func (p *phaseSink) OnPhase(*Phase) { p.phases++ }

// TestPhaseSpans: Multi is a PhaseObserver only when a member is one, and
// forwards spans to those members alone; a span's line carries its work
// counts as top-level members; Work adds, subtracts and lists its non-zero
// counts.
func TestPhaseSpans(t *testing.T) {
	if _, ok := Multi(NewRecorder(), NewRecorder()).(PhaseObserver); ok {
		t.Error("Multi of plain observers takes phase spans")
	}
	rec, sink := NewRecorder(), &phaseSink{}
	m, ok := Multi(rec, nil, sink).(PhaseObserver)
	if !ok {
		t.Fatal("Multi with a PhaseObserver member takes no phase spans")
	}
	ph := &Phase{Iteration: 2, Phase: "select", WallNS: 1500, Work: Work{TreeNodes: 40, Cells: 3}}
	m.OnPhase(ph)
	m.OnEvent(&Fallback{})
	if len(rec.Events()) != 1 || sink.events != 1 || sink.phases != 1 {
		t.Errorf("recorder saw %d events; sink %d events and %d spans, want 1, 1 and 1", len(rec.Events()), sink.events, sink.phases)
	}
	line, err := MarshalJSON(ph)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"event":"phase","iteration":2,"phase":"select","wall_ns":1500,"tree_nodes":40,"rows_abandoned":0,"splits_scanned":0,"draws":0,"rejections":0,"sim_events":0,"cells":3,"distances":0}`; string(line) != want {
		t.Errorf("phase line\n%s\nwant\n%s", line, want)
	}
	w := Work{TreeNodes: 1, Draws: 5, Distances: 7}
	if got := w.Add(ph.Work).Sub(w); got != ph.Work {
		t.Errorf("w + v - w = %+v, want %+v", got, ph.Work)
	}
	if got := w.String(); got != "tree_nodes=1 draws=5 distances=7" {
		t.Errorf("String() = %q", got)
	}
}
