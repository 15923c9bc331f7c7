package histdb

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/tuner"
)

// lifecycleFrames returns the frames a store holds for runs of every kind
// the service finishes — tune, warm, failed with an error message,
// cancelled mid-run, continuous — each as its queued and running records,
// a progress frame, its terminal progress frame and its whole record, in
// that order, with each frame's kind.
func lifecycleFrames(t testing.TB) (kinds []byte, payloads [][]byte) {
	add := func(kind byte, v any) {
		kinds, payloads = append(kinds, kind), append(payloads, mustJSON(t, v))
	}
	base := servedRecords(1)[0]
	at := time.Date(2026, 3, 4, 5, 6, 7, 890123456, time.UTC)
	stats := collector.Stats{Misses: 65, WorkflowRuns: 35, ComponentRuns: 30, InFlightPeak: 15}
	runs := []*RunRecord{base.Clone(), base.Clone(), base.Clone(), base.Clone(), base.Clone()}
	runs[1].Spec.WarmStart = true
	runs[1].Warm = &tuner.WarmStart{Samples: base.Result.Samples[:3], ComponentSamples: [][]tuner.Sample{base.Result.ComponentSamples[0][:2], nil}}
	runs[2].State, runs[2].Result, runs[2].Error = StateFailed, nil, "build: no such benchmark: XX"
	runs[3].State, runs[3].Result, runs[3].Error = StateCancelled, nil, "context canceled"
	runs[3].Checkpoint = map[string]float64{"c0:507,30,3": 4.767347371022266, "w:141,20,1,40,11,3": 4.97112543418296}
	runs[4].Spec.Mode, runs[4].Spec.Drift, runs[4].Spec.Probes = ModeContinuous, "periodic", 60
	runs[4].Continuous = &tuner.ContinuousResult{
		Epochs: []tuner.ContinuousEpoch{{Probe: 12, ClockStart: 30.5, ClockEnd: 41.25, Measurements: 14, BestValue: 2.5}},
		Probes: 60, Retunes: 1, Switchbacks: 2, CumulativeRegret: 12.75, ReexploreCost: 0, FinalClock: 1e-7,
		Incumbent: cfgspace.Config{232, 35, 1, 89, 25, 1}, IncumbentValue: 3.25,
	}
	for i, run := range runs {
		run.ID = fmt.Sprintf("run-%06d", i+1)
		run.SubmittedAt, run.Collector, run.Runner = at, stats, "replica-a"
		queued := &RunRecord{ID: run.ID, Spec: run.Spec, SpecKey: run.SpecKey, State: StateQueued, Components: run.Components, SubmittedAt: at}
		add(recordFrame, queued)
		running := queued.Clone()
		running.State, running.StartedAt, running.Warm = StateRunning, at.Add(time.Millisecond), run.Warm
		add(recordFrame, running)
		add(progressFrame, &Progress{ID: run.ID, Checkpoint: map[string]float64{"w:1,2,3": 0.5, "c1:4,5": 0.25}, Trace: run.Trace[:4]})
		end := at.Add(time.Second)
		add(progressFrame, &Progress{ID: run.ID, Trace: run.Trace[4:], State: run.State, FinishedAt: &end, Error: run.Error,
			Result: run.Result, Continuous: run.Continuous, Collector: &run.Collector})
		run.StartedAt, run.FinishedAt = running.StartedAt, end
		add(recordFrame, run)
	}
	return kinds, payloads
}

// shrinkFrame re-encodes a lifecycle frame under 1 KB, every kind of
// field kept: a Result keeps one importance and, in a progress frame, one
// sample, and drops its component samples; warm data keeps one sample of
// each kind; a progress frame keeps one trace line, a record frame none.
func shrinkFrame(t testing.TB, kind byte, payload []byte) []byte {
	t.Helper()
	var v any = new(RunRecord)
	if kind == progressFrame {
		v = new(Progress)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		t.Fatal(err)
	}
	var res *tuner.Result
	samples := 1
	switch v := v.(type) {
	case *RunRecord:
		res, v.Trace, samples = v.Result, nil, 0
		if w := v.Warm; w != nil {
			w.Samples, w.ComponentSamples = w.Samples[:1], [][]tuner.Sample{w.ComponentSamples[0][:1]}
		}
	case *Progress:
		res, v.Trace = v.Result, v.Trace[:min(1, len(v.Trace))]
	}
	if res != nil {
		res.Samples, res.ComponentSamples, res.Importance = res.Samples[:samples], nil, res.Importance[:1]
	}
	return mustJSON(t, v)
}

// decodeBoth decodes payload as its kind says on the canonical path and
// with json.Unmarshal.
func decodeBoth(kind byte, payload []byte) (fast any, accepted bool, ref any, err error) {
	fresh := func() any {
		if kind == progressFrame {
			return new(Progress)
		}
		return new(RunRecord)
	}
	fast, ref = fresh(), fresh()
	return fast, decodeCanonical(payload, fast), ref, json.Unmarshal(payload, ref)
}

// TestLifecycleFramesTakeTheCanonicalPath: every frame a run of any kind
// leaves in the log decodes in one pass, to json.Unmarshal's value.
func TestLifecycleFramesTakeTheCanonicalPath(t *testing.T) {
	kinds, payloads := lifecycleFrames(t)
	for i, payload := range payloads {
		fast, ok, ref, err := decodeBoth(kinds[i], payload)
		if err != nil || !ok || !reflect.DeepEqual(fast, ref) {
			t.Fatalf("frame %d: canonical path accepted %v (json: %v), equal %v:\n%.300s", i, ok, err, reflect.DeepEqual(fast, ref), payload)
		}
	}
}

// FuzzDecodeFramed holds the canonical path to json.Unmarshal, the
// reference: whatever it accepts is valid JSON and decodes
// reflect.DeepEqual to json.Unmarshal's value, and it accepts nothing
// json.Unmarshal refuses. decodeFramed returns that value, or refuses what
// json.Unmarshal refuses.
func FuzzDecodeFramed(f *testing.F) {
	kinds, payloads := lifecycleFrames(f)
	// Each mutation leaves the payload valid JSON that encodeFramed would
	// not write — which the canonical path reads, or declines for
	// json.Unmarshal — or breaks it.
	mutations := []func(string) string{
		func(s string) string { return s },
		func(s string) string { return strings.Replace(s, `,"`, `, "`, 1) },
		func(s string) string { return strings.Replace(s, `"id":"run-`, `"id":"run\u002d`, 1) },
		func(s string) string { return strings.TrimSuffix(s, "}") + `,"pool_bits":"AAAAAAAA+D8="}` },
		func(s string) string { return strings.Replace(s, `"Value":4.`, `"Value":4.0e0`, 1) },
		func(s string) string { return strings.Replace(s, `[232,`, `[-0,`, 1) },
		func(s string) string { return strings.Replace(s, `"misses":65`, `"misses":-65`, 1) },
		func(s string) string { return strings.Replace(s, `Z"`, `+00:00"`, 1) },
		func(s string) string { return strings.Replace(s, `"event":`, `"event" :`, 1) },
		func(s string) string { return strings.Replace(s, `{"event"`, `{"event<"`, 1) },
		func(s string) string { return strings.Replace(s, `"state":"`, `"state":"\n`, 1) },
		func(s string) string {
			return strings.Replace(s, `"best_config":[`, `"best_config":[[[[[[[[[[[[[[[[[[[[`, 1)
		},
		func(s string) string { return strings.Replace(s, `"SwitchIteration":1`, `"SwitchIteration":01`, 1) },
		func(s string) string { return strings.Replace(s, `"runner":"replica-a"`, `"runner":""`, 1) },
		func(s string) string { return strings.Replace(s, `"incumbent_value":3.25`, `"incumbent_value":-0`, 1) },
		func(s string) string { return strings.Replace(s, `"warm_start":true`, `"warm_start":false`, 1) },
		func(s string) string { return strings.Replace(s, `"Importance":`, `"Unknown":1,"Importance":`, 1) },
		func(s string) string { return strings.Replace(s, `"checkpoint":{"c`, `"checkpoint":{"w:9":1,"c`, 1) },
		func(s string) string { return strings.Replace(s, `{"event":"`, "{\"event\":\"\u2028", 1) },
		func(s string) string { return s[:len(s)/2] },
		func(s string) string { return s + " " },
	}
	for i, p := range payloads {
		p = shrinkFrame(f, kinds[i], p)
		if len(p) >= 1024 {
			f.Fatalf("a %d-byte seed: seeds stay under 1 KB, so the fuzzer mutates rather than minimizes", len(p))
		}
		for _, m := range mutations {
			f.Add(kinds[i] == progressFrame, []byte(m(string(p))))
		}
	}
	f.Fuzz(func(t *testing.T, progress bool, payload []byte) {
		kind := byte(recordFrame)
		if progress {
			kind = progressFrame
		}
		fast, ok, ref, err := decodeBoth(kind, payload)
		if err != nil && ok {
			t.Fatalf("canonical path accepted what json.Unmarshal refuses (%v): %q", err, payload)
		}
		if ok {
			if !json.Valid(payload) {
				t.Fatalf("canonical path accepted invalid JSON: %q", payload)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("canonical path decoded %q as\n%#v\nwant\n%#v", payload, fast, ref)
			}
		}
		got, derr := decodeFramed(frameLine(kind, payload))
		if (derr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(got, ref) {
			t.Fatalf("decodeFramed = %v, %v; json.Unmarshal = %v, %v", got, derr, ref, err)
		}
	})
}

// frameLine CRC-frames a payload as a frame of the given kind, less its
// newline.
func frameLine(kind byte, payload []byte) []byte {
	return append(fmt.Appendf(nil, "%08x%c", crc32.ChecksumIEEE(payload), kind), payload...)
}

// TestNumberFormsDecodeLikeJSON: a frame may hold a number in any form
// JSON allows — trailing zeros, an exponent, a capital E, -0 — and a
// checkpoint's keys in any order, repeated or none; each decodes on the
// canonical path to json.Unmarshal's value, as does a time written with
// fraction digits. A number JSON's grammar refuses is refused with
// json.Unmarshal's error.
func TestNumberFormsDecodeLikeJSON(t *testing.T) {
	rec := liveRec("run-000001", 1)
	rec.Checkpoint = map[string]float64{"a": 1.5, "b": 100, "c": 4}
	payload := string(mustJSON(t, rec))
	const cp, at = `"checkpoint":{"a":1.5,"b":100,"c":4}`, `"started_at":"0001-01-01T00:00:00Z"`
	if !strings.Contains(payload, cp) || !strings.Contains(payload, at) {
		t.Fatalf("payload lacks %s or %s: %s", cp, at, payload)
	}
	for _, tc := range []struct {
		old, new string
		ok       bool
	}{
		{cp, `"checkpoint":{"a":1.50,"b":100,"c":4}`, true},
		{cp, `"checkpoint":{"a":1.5,"b":100,"c":4.0e0}`, true},
		{cp, `"checkpoint":{"a":1.5,"b":1E+2,"c":4}`, true},
		{cp, `"checkpoint":{"a":15e-1,"b":100,"c":-0}`, true},
		{cp, `"checkpoint":{"c":4,"a":1.5,"b":100}`, true},
		{cp, `"checkpoint":{"a":1,"b":100,"c":4,"a":1.5}`, true},
		{cp, `"checkpoint":{}`, true},
		{at, `"started_at":"0001-01-01T00:00:00.000Z"`, true},
		{cp, `"checkpoint":{"a":+1,"b":100,"c":4}`, false},
		{cp, `"checkpoint":{"a":01,"b":100,"c":4}`, false},
		{cp, `"checkpoint":{"a":.5,"b":100,"c":4}`, false},
		{cp, `"checkpoint":{"a":1.,"b":100,"c":4}`, false},
		{cp, `"checkpoint":{"a":1e,"b":100,"c":4}`, false},
	} {
		p := []byte(strings.Replace(payload, tc.old, tc.new, 1))
		fast, ok, ref, err := decodeBoth(recordFrame, p)
		got, derr := decodeFramed(frameLine(recordFrame, p))
		if tc.ok && (!ok || err != nil || derr != nil || !reflect.DeepEqual(fast, ref) || !reflect.DeepEqual(got, ref)) {
			t.Errorf("%s: canonical path accepted %v, equal %v; decodeFramed %v; json.Unmarshal %v", tc.new, ok, reflect.DeepEqual(fast, ref), derr, err)
		}
		if !tc.ok && (ok || err == nil || derr == nil || derr.Error() != err.Error()) {
			t.Errorf("%s: canonical path accepted %v; decodeFramed refused with %v, json.Unmarshal with %v", tc.new, ok, derr, err)
		}
	}
}
