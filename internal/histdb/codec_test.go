package histdb

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/tuner"
)

// frame CRC-frames a payload the way encodeFramed does, for hand-built
// payloads no encoder would write.
func frame(payload string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// genScores draws n finite scores, salted with the values a text codec gets
// wrong: negative zero, denormals, the extremes.
func genScores(rng *rand.Rand, n int) []float64 {
	special := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 1e21, 1e-7}
	out := make([]float64, n)
	for i := range out {
		switch rng.IntN(4) {
		case 0:
			out[i] = special[rng.IntN(len(special))]
		case 1:
			// Any finite bit pattern.
			for {
				out[i] = math.Float64frombits(rng.Uint64())
				if !math.IsNaN(out[i]) && !math.IsInf(out[i], 0) {
					break
				}
			}
		default:
			out[i] = rng.NormFloat64() * 1e3
		}
	}
	return out
}

// genRecord draws one record of every shape the service persists: queued
// (no result), live with a checkpoint, failed, done, done continuous.
func genRecord(rng *rand.Rand, i int) *RunRecord {
	spec := Spec{Benchmark: []string{"LV", "HS", "GP"}[rng.IntN(3)], Seed: rng.Uint64N(1000) + 1}
	rec := &RunRecord{
		ID:          fmt.Sprintf("run-%06d", i),
		Spec:        spec.Normalize(),
		SpecKey:     spec.Key(),
		Components:  []string{"lammps", "voro"},
		SubmittedAt: time.Unix(int64(1000+i), 0).UTC(),
	}
	samples := func(n int) []tuner.Sample {
		out := make([]tuner.Sample, n)
		for j := range out {
			out[j] = tuner.Sample{Cfg: cfgspace.Config{rng.IntN(600), rng.IntN(30), 1}, Value: rng.Float64() * 100}
		}
		return out
	}
	switch rng.IntN(5) {
	case 0:
		rec.State = StateQueued
	case 1:
		rec.State = StateRunning
		rec.Checkpoint = map[string]float64{"w:1,2,3": rng.Float64(), "c0:4,5": rng.Float64()}
		rec.Trace = []json.RawMessage{json.RawMessage(`{"type":"run_started"}`)}
		rec.Warm = &tuner.WarmStart{Samples: samples(3)}
	case 2:
		rec.State = StateFailed
		rec.Error = "build: no such benchmark"
		rec.FinishedAt = rec.SubmittedAt.Add(time.Second)
	default:
		rec.State = StateDone
		rec.FinishedAt = rec.SubmittedAt.Add(time.Minute)
		rec.Result = &tuner.Result{
			Best:             cfgspace.Config{561, 25, 1},
			Samples:          samples(rng.IntN(5)),
			ComponentSamples: [][]tuner.Sample{samples(2), nil},
			CollectionCost:   rng.Float64() * 1e4,
			SwitchIteration:  rng.IntN(5) - 1,
			Importance:       []float64{0.25, 0.75},
		}
		switch rng.IntN(5) {
		case 0: // nil scores
		case 1:
			rec.Result.PoolScores = []float64{}
		case 2:
			rec.Result.PoolScores = genScores(rng, 1)
		case 3:
			rec.Result.PoolScores = genScores(rng, 2000)
		default:
			rec.Result.PoolScores = genScores(rng, 1+rng.IntN(40))
		}
		if rng.IntN(3) == 0 {
			rec.Continuous = &tuner.ContinuousResult{Probes: 60, Retunes: 2, CumulativeRegret: rng.Float64()}
		}
	}
	return rec
}

// TestFrameRoundTripProperty: for generated records of every shape,
// decode(encode(r)) marshals to r's JSON byte for byte, the scores come
// back bit for bit (nil staying nil, empty staying empty), and encoding
// never touches r.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for i := 0; i < 400; i++ {
		rec := genRecord(rng, i)
		want := mustJSON(t, rec)
		var scores []float64
		if rec.Result != nil {
			scores = rec.Result.PoolScores
		}

		line, err := encodeFramed(nil, recordFrame, rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		if got := mustJSON(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("record %d: encodeFramed modified the caller's record", i)
		}
		if rec.Result != nil && (len(rec.Result.PoolScores) != len(scores) || (scores == nil) != (rec.Result.PoolScores == nil)) {
			t.Fatalf("record %d: encodeFramed replaced the caller's scores", i)
		}

		d, err := decodeFramed(line[:len(line)-1])
		got := d.(*RunRecord)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if gotJSON := mustJSON(t, got); !bytes.Equal(gotJSON, want) {
			t.Fatalf("record %d: round trip changed the record:\n got %.200s\nwant %.200s", i, gotJSON, want)
		}
		if rec.Result != nil {
			back := got.Result.PoolScores
			if (back == nil) != (scores == nil) || len(back) != len(scores) {
				t.Fatalf("record %d: scores nil/len changed: %v/%d -> %v/%d", i, scores == nil, len(scores), back == nil, len(back))
			}
			for j := range scores {
				if math.Float64bits(back[j]) != math.Float64bits(scores[j]) {
					t.Fatalf("record %d score %d: %x -> %x", i, j, math.Float64bits(scores[j]), math.Float64bits(back[j]))
				}
			}
		}
	}
}

// TestPoolBitsFrameOpensWithoutScores: frames that carried their pool
// scores as base64 "pool_bits" decode through the plain JSON form to the
// same record without those scores; the store opens as before.
func TestPoolBitsFrameOpensWithoutScores(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := doneRec("run-000001", Spec{Benchmark: "LV", Seed: 1}, "lammps", "voro")
	want := mustJSON(t, rec)
	bits := base64.StdEncoding.EncodeToString(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)))
	payload := strings.TrimSuffix(string(want), "}") + `,"pool_bits":"` + bits + `"}`
	if err := os.WriteFile(filepath.Join(dir, segmentName(1, "0ldf0rm0")), []byte(frame(payload)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, ok := s.Get(rec.ID)
	if !ok {
		t.Fatal("pool_bits frame did not open")
	}
	if gotJSON := mustJSON(t, got); !bytes.Equal(gotJSON, want) {
		t.Fatalf("pool_bits frame opened as\n%s\nwant\n%s", gotJSON, want)
	}
}

// TestSaveRefusesNonFiniteScores: NaN and ±Inf scores are refused with the
// error encoding/json gives for them — GET /v1/runs/{id} could never
// marshal the record back out — and a refused save leaves the in-memory
// view where the disk is.
func TestSaveRefusesNonFiniteScores(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dir := filepath.Join(t.TempDir(), "runs")
		s, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := doneRec("run-000001", Spec{Benchmark: "LV"}, "lammps")
		rec.Result.PoolScores = []float64{1, v, 3}
		_, want := json.Marshal(rec)

		err = s.Save(rec)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || err.Error() != want.Error() {
			t.Fatalf("Save(%v) = %v, want %v", v, err, want)
		}
		if _, ok := s.Get(rec.ID); ok {
			t.Fatalf("Save(%v) failed but Get serves the record", v)
		}
		if _, ok := s.BySpec(rec.SpecKey); ok {
			t.Fatalf("Save(%v) failed but BySpec serves the record", v)
		}
		if n := len(s.List()) + len(s.BySpecFamily(rec.Spec.FamilyKey())) + len(s.ByComponent("lammps")); n != 0 {
			t.Fatalf("Save(%v) failed but queries return %d records", v, n)
		}
		// The store is still good for the next record.
		ok := doneRec("run-000002", Spec{Benchmark: "LV", Seed: 2}, "lammps")
		ok.Result.PoolScores = []float64{1, 2, 3}
		if err := s.Save(ok); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ids := recIDs(reopened.List()); len(ids) != 1 || ids[0] != "run-000002" {
			t.Fatalf("reopened store holds %v, want only run-000002", ids)
		}
		reopened.Close()
	}
}

// FuzzFrameRoundTrip reads arbitrary bytes as float bits: a frame either is
// refused with json's error (some score is NaN or ±Inf) or decodes to the
// same bits, and the caller's scores are never written to.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), math.Float64bits(math.MaxFloat64)))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(bytes.Repeat([]byte{0xf0, 0x7f}, 12)) // +Inf among denormal-ish patterns

	f.Fuzz(func(t *testing.T, data []byte) {
		scores := make([]float64, len(data)/8)
		finite := true
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			finite = finite && !math.IsNaN(scores[i]) && !math.IsInf(scores[i], 0)
		}
		orig := append([]float64(nil), scores...)
		rec := doneRec("run-000001", Spec{Benchmark: "LV"})
		rec.Result.PoolScores = scores

		line, err := encodeFramed(nil, recordFrame, rec)
		for i := range scores {
			if math.Float64bits(scores[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("encodeFramed wrote to the caller's score %d", i)
			}
		}
		if !finite {
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) {
				t.Fatalf("non-finite scores: err = %v, want *json.UnsupportedValueError", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		d, err := decodeFramed(line[:len(line)-1])
		got := d.(*RunRecord)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Result.PoolScores) != len(orig) {
			t.Fatalf("%d scores came back as %d", len(orig), len(got.Result.PoolScores))
		}
		for i, v := range got.Result.PoolScores {
			if math.Float64bits(v) != math.Float64bits(orig[i]) {
				t.Fatalf("score %d: %x -> %x", i, math.Float64bits(orig[i]), math.Float64bits(v))
			}
		}
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, rec)) {
			t.Fatal("round trip changed the record")
		}
	})
}
