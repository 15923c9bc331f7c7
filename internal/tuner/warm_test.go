package tuner

import (
	"strings"
	"testing"

	"ceal/internal/tuner/events"
)

// warmData runs a donor tuning pass and packages its measurements as the
// transfer-learning input a history database would assemble.
func warmData(t *testing.T, seed uint64) *WarmStart {
	t.Helper()
	donor := synthProblem(seed, 300)
	res, err := NewCEAL().Tune(donor, 30)
	if err != nil {
		t.Fatal(err)
	}
	w := &WarmStart{Samples: res.Samples, ComponentSamples: res.ComponentSamples}
	if w.Empty() {
		t.Fatal("donor run produced no warm data")
	}
	return w
}

func TestWarmStartEmptyNilSafe(t *testing.T) {
	var w *WarmStart
	if !w.Empty() {
		t.Fatal("nil WarmStart not empty")
	}
	if !(&WarmStart{}).Empty() {
		t.Fatal("zero WarmStart not empty")
	}
	if !(&WarmStart{ComponentSamples: [][]Sample{nil, {}}}).Empty() {
		t.Fatal("WarmStart with empty component slices not empty")
	}
	if (&WarmStart{Samples: []Sample{{}}}).Empty() {
		t.Fatal("WarmStart with a workflow sample reported empty")
	}
}

func TestWarmRunDeterministicGivenFixedWarmData(t *testing.T) {
	warm := warmData(t, 41)
	run := func() *Result {
		p := synthProblem(42, 300)
		p.Warm = warm
		res, err := NewCEAL().Tune(p, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Best.Key() != r2.Best.Key() {
		t.Fatalf("warm runs diverged: Best %v vs %v", r1.Best, r2.Best)
	}
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatalf("warm runs measured %d vs %d samples", len(r1.Samples), len(r2.Samples))
	}
	for i := range r1.Samples {
		if r1.Samples[i].Cfg.Key() != r2.Samples[i].Cfg.Key() || r1.Samples[i].Value != r2.Samples[i].Value {
			t.Fatalf("sample %d differs: %+v vs %+v", i, r1.Samples[i], r2.Samples[i])
		}
	}
}

func TestEmptyWarmMatchesCold(t *testing.T) {
	// An empty (or nil) WarmStart must leave the run byte-identical to a
	// cold one: the warm hook is gated on Empty().
	cold := synthProblem(7, 250)
	rc, err := NewCEAL().Tune(cold, 20)
	if err != nil {
		t.Fatal(err)
	}
	p := synthProblem(7, 250)
	p.Warm = &WarmStart{}
	rw, err := NewCEAL().Tune(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Best.Key() != rw.Best.Key() || len(rc.Samples) != len(rw.Samples) {
		t.Fatalf("empty warm changed the run: %v/%d vs %v/%d",
			rc.Best, len(rc.Samples), rw.Best, len(rw.Samples))
	}
	for i := range rc.Samples {
		if rc.Samples[i].Value != rw.Samples[i].Value {
			t.Fatalf("sample %d value drifted: %v vs %v", i, rc.Samples[i].Value, rw.Samples[i].Value)
		}
	}
}

func TestCEALWarmComponentsSkipFreshSoloRuns(t *testing.T) {
	warm := warmData(t, 13)
	if len(warm.ComponentSamples) != 2 || len(warm.ComponentSamples[0]) == 0 {
		t.Fatalf("donor warm data lacks component coverage: %v", warm.ComponentSamples)
	}
	p := synthProblem(14, 300)
	p.Warm = warm
	res, err := NewCEAL().Tune(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	for j, cs := range res.ComponentSamples {
		if len(cs) != 0 {
			t.Errorf("component %d: %d fresh solo runs despite warm coverage", j, len(cs))
		}
	}
	if len(res.Samples) < 15 {
		t.Errorf("only %d workflow samples; warm coverage should free the whole budget", len(res.Samples))
	}
}

func TestWarmPartialComponentCoverageStillMeasures(t *testing.T) {
	// Warm data covering only one of two configurable components must not
	// suppress the other's fresh solo runs.
	warm := warmData(t, 17)
	warm.ComponentSamples[1] = nil
	p := synthProblem(18, 300)
	p.Warm = warm
	res, err := NewCEAL().Tune(p, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ComponentSamples[1]) == 0 {
		t.Error("uncovered component got no fresh solo runs")
	}
	// The covered component's warm samples still feed its Phase-1 model
	// alongside the fresh ones; the run must complete and produce a result.
	if len(res.Samples) == 0 {
		t.Error("no workflow samples")
	}
}

func TestWarmStartedEventEmitted(t *testing.T) {
	warm := warmData(t, 23)
	p := synthProblem(24, 300)
	p.Warm = warm
	rec := events.NewRecorder()
	p.Observer = rec
	if _, err := NewCEAL().Tune(p, 20); err != nil {
		t.Fatal(err)
	}
	var ws *events.WarmStarted
	for _, e := range rec.Events() {
		if w, ok := e.(*events.WarmStarted); ok {
			ws = w
			break
		}
	}
	if ws == nil {
		t.Fatal("no WarmStarted event in trace")
	}
	if ws.WorkflowSamples != len(warm.Samples) {
		t.Errorf("WorkflowSamples = %d, want %d", ws.WorkflowSamples, len(warm.Samples))
	}
	if !ws.SurrogateSeeded {
		t.Error("CEAL modeler should have seeded its surrogate from warm samples")
	}

	// Cold runs must not emit the event.
	cold := synthProblem(24, 300)
	rec2 := events.NewRecorder()
	cold.Observer = rec2
	if _, err := NewCEAL().Tune(cold, 20); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec2.Events() {
		if _, ok := e.(*events.WarmStarted); ok {
			t.Fatal("cold run emitted WarmStarted")
		}
	}
}

func TestWarmSeedsALSurrogate(t *testing.T) {
	// The AL modeler also implements WarmStarter: its seed batch should rank
	// by the pre-trained model rather than sampling blind.
	warm := warmData(t, 29)
	p := synthProblem(30, 300)
	p.Warm = warm
	rec := events.NewRecorder()
	p.Observer = rec
	if _, err := NewAL().Tune(p, 20); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Events() {
		if ws, ok := e.(*events.WarmStarted); ok {
			if !ws.SurrogateSeeded {
				t.Error("AL modeler did not seed from warm samples")
			}
			return
		}
	}
	t.Fatal("no WarmStarted event in AL trace")
}

func TestTrainingSamplesColdPathSharesSlice(t *testing.T) {
	st := &State{Samples: []Sample{{Value: 1}, {Value: 2}}}
	got := st.TrainingSamples()
	if &got[0] != &st.Samples[0] {
		t.Fatal("cold TrainingSamples allocated a copy")
	}
	st.Prior = []Sample{{Value: 9}}
	got = st.TrainingSamples()
	if len(got) != 3 || got[0].Value != 9 || got[2].Value != 2 {
		t.Fatalf("warm TrainingSamples = %v", got)
	}
}

// TestALpHSurrogateRefusesPriors: ALpH's M'_0 fits on codes discovered
// over the pool's rows and their component predictions, where no prior
// configuration has a row, so a warm prior reaching it is refused rather
// than coded by the declared columns and fitted among discovered codes.
func TestALpHSurrogateRefusesPriors(t *testing.T) {
	p := synthProblem(29, 100)
	s := &alphStrategy{}
	if _, err := s.Bootstrap(&State{Problem: p, Budget: 20, Rng: newTestRNG(3)}); err != nil {
		t.Fatal(err)
	}
	prior := []Sample{{Cfg: p.Pool[0], Value: 5}, {Cfg: p.Pool[1], Value: 7}}
	if err := s.model.Train(&State{Problem: p, Prior: prior}); err == nil || !strings.Contains(err.Error(), "no warm priors") {
		t.Fatalf("M'_0 trained on warm priors: %v", err)
	}
}

func TestWarmImprovesEarlyBest(t *testing.T) {
	// Averaged over seeds, a warm CEAL run under a tight budget should land
	// at least as well as a cold one — prior knowledge must not hurt.
	const budget = 10
	const reps = 8
	var coldSum, warmSum float64
	for rep := 0; rep < reps; rep++ {
		seed := uint64(300 + rep)
		warm := warmData(t, seed+1000)

		pc := synthProblem(seed, 300)
		rc, err := NewCEAL().Tune(pc, budget)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := pc.Eval.MeasureWorkflow(rc.Best)
		coldSum += v

		pw := synthProblem(seed, 300)
		pw.Warm = warm
		rw, err := NewCEAL().Tune(pw, budget)
		if err != nil {
			t.Fatal(err)
		}
		v, _ = pw.Eval.MeasureWorkflow(rw.Best)
		warmSum += v
	}
	if warmSum > coldSum*1.05 {
		t.Errorf("warm mean %.3f worse than cold mean %.3f", warmSum/reps, coldSum/reps)
	}
}
