package tuner

// Warm-start: transfer learning across tuning runs (the ROADMAP's history
// database). A WarmStart carries measurements made by *prior* runs into a
// new one, on the two levels the paper's bootstrapping method exposes:
//
//   - workflow samples of the same spec family pre-train the Phase-2
//     high-fidelity surrogate, so candidate ranking starts informed instead
//     of random;
//   - standalone component samples from any run sharing a component
//     application feed the Phase-1 component models, replacing the mR
//     fresh component runs CEAL would otherwise charge against the budget
//     (the cross-workflow reuse of §4: LV/HS/GP share their app kernels).
//
// The cold path is untouched: with Problem.Warm nil, no warm code runs and
// results are byte-identical to builds without this file. Warm runs are
// deterministic given fixed warm data — assembly from the history database
// is ordered (histdb List order), and all consumption below is order-
// preserving.

// WarmStart is prior-run training data injected into a Problem. Values
// must come from the same objective as the new run (they are metric
// samples, not configurations).
type WarmStart struct {
	// Samples are prior workflow measurements of the same spec family,
	// used to pre-train the high-fidelity surrogate before the first batch.
	Samples []Sample `json:"samples,omitempty"`
	// ComponentSamples are prior standalone component measurements,
	// index-aligned with Problem.Components; they join History and fresh
	// mR runs as Phase-1 training data.
	ComponentSamples [][]Sample `json:"component_samples,omitempty"`
}

// Empty reports whether the warm start carries no data at all.
func (w *WarmStart) Empty() bool {
	if w == nil {
		return true
	}
	if len(w.Samples) > 0 {
		return false
	}
	for _, cs := range w.ComponentSamples {
		if len(cs) > 0 {
			return false
		}
	}
	return true
}

// warmComponent returns the warm component samples for component j, if the
// problem carries index-aligned warm data.
func (p *Problem) warmComponent(j int) []Sample {
	if p.Warm == nil || len(p.Warm.ComponentSamples) != len(p.Components) {
		return nil
	}
	return p.Warm.ComponentSamples[j]
}

// warmCoversComponents reports whether warm data gives every configurable
// component at least one standalone measurement — the condition under
// which CEAL can skip its fresh component runs exactly as it does for full
// historical data (D_hist).
func (p *Problem) warmCoversComponents() bool {
	w := p.Warm
	if w == nil || len(w.ComponentSamples) != len(p.Components) {
		return false
	}
	for j, c := range p.Components {
		if c.Space != nil && len(w.ComponentSamples[j]) == 0 {
			return false
		}
	}
	return true
}

// WarmStarter is the optional strategy hook for surrogate seeding: a
// Strategy implementing it is handed the run state (with State.Prior set to
// the warm workflow samples) after Bootstrap and before the seed batch, and
// should pre-train its surrogate so seeding can exploit prior knowledge.
// The Loop discovers it by type assertion, like the other optional hooks.
type WarmStarter interface {
	WarmStart(st *State) error
}

// TrainingSamples returns the surrogate training set: warm prior samples
// (if any) followed by this run's own measurements. Strategies that seed
// from priors should (re)train on this instead of st.Samples so prior
// knowledge is retained across refits. With no priors it returns st.Samples
// itself — the cold path allocates nothing.
func (s *State) TrainingSamples() []Sample {
	if len(s.Prior) == 0 {
		return s.Samples
	}
	out := make([]Sample, 0, len(s.Prior)+len(s.Samples))
	out = append(out, s.Prior...)
	return append(out, s.Samples...)
}
