package histdb

import (
	"fmt"
	"strings"

	"ceal/internal/dispatch"
)

// Default spec values applied by Normalize.
const (
	DefaultBudget = 50
	DefaultPool   = 2000
	// DefaultProbes is the monitoring-probe count Normalize applies to
	// continuous-mode specs.
	DefaultProbes = 60
)

// Run modes. A tune run is the one-shot paper scenario; a continuous run
// keeps monitoring the incumbent under a drift profile and retunes online.
const (
	ModeTune       = "tune"
	ModeContinuous = "continuous"
)

// Spec describes one tuning job: which benchmark workflow to tune, with
// which algorithm, toward which objective, under which budget. It is the
// POST /v1/runs request body. A spec fully determines its run — two
// identical specs produce byte-identical results — which is what lets the
// service dedupe repeated submissions against the store.
//
// Validation and problem assembly live in internal/service (validate,
// BuildSpec): this package only defines the identity of a run so that the
// store stays free of workflow/algorithm registry dependencies.
type Spec struct {
	// Benchmark is the workflow to tune: LV, HS, or GP.
	Benchmark string `json:"benchmark"`
	// Algorithm is the tuning algorithm: rs, al, geist, alph, or ceal.
	// Defaults to ceal.
	Algorithm string `json:"algorithm,omitempty"`
	// Objective is the optimization metric: exec, comp, or energy.
	// Defaults to comp.
	Objective string `json:"objective,omitempty"`
	// Budget is the measurement budget in workflow-run equivalents
	// (default 50).
	Budget int `json:"budget,omitempty"`
	// Pool is the candidate pool size (default 2000).
	Pool int `json:"pool,omitempty"`
	// Seed drives every random choice of the run (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the per-run measurement and scoring parallelism
	// (default 1; never changes results).
	Workers int `json:"workers,omitempty"`
	// WarmStart opts the run into transfer learning: on admission the
	// service assembles prior samples from the history database (same spec
	// family for the Phase-2 surrogate, shared components for Phase-1) and
	// seeds the run with them. A warm run's result depends on the database
	// state at admission, so WarmStart is part of Key (warm and cold runs
	// never dedupe against each other) but not of FamilyKey.
	WarmStart bool `json:"warm_start,omitempty"`
	// Mode selects the run type: "tune" (default) is the one-shot tuning
	// run; "continuous" keeps the run alive after convergence, monitoring
	// the incumbent under the Drift profile and retuning online on
	// confirmed drift (tuner.Continuous over internal/drift).
	Mode string `json:"mode,omitempty"`
	// Drift names the platform-load profile a continuous run monitors
	// under (see cluster.ProfileNames; default "none", the constant
	// profile, which "constant" also names). Ignored for tune runs.
	Drift string `json:"drift,omitempty"`
	// Probes is a continuous run's monitoring-probe count after initial
	// convergence (default DefaultProbes). Ignored for tune runs.
	Probes int `json:"probes,omitempty"`
}

// Normalize returns the spec with names canonicalized (benchmark upper,
// algorithm/objective lower) and defaults applied. Key and FamilyKey both
// operate on the normalized form, so specs differing only in case or in
// explicitly-spelled defaults are the same job.
func (s Spec) Normalize() Spec {
	s.Benchmark = strings.ToUpper(strings.TrimSpace(s.Benchmark))
	s.Algorithm = strings.ToLower(strings.TrimSpace(s.Algorithm))
	s.Objective = strings.ToLower(strings.TrimSpace(s.Objective))
	if s.Algorithm == "" {
		s.Algorithm = "ceal"
	}
	if s.Objective == "" {
		s.Objective = "comp"
	}
	if s.Budget == 0 {
		s.Budget = DefaultBudget
	}
	if s.Pool == 0 {
		s.Pool = DefaultPool
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	s.Mode = strings.ToLower(strings.TrimSpace(s.Mode))
	if s.Mode == "" {
		s.Mode = ModeTune
	}
	s.Drift = strings.ToLower(strings.TrimSpace(s.Drift))
	if s.Mode == ModeContinuous {
		if s.Drift == "" || s.Drift == "constant" {
			s.Drift = "none"
		}
		if s.Probes <= 0 {
			s.Probes = DefaultProbes
		}
	} else {
		// Drift and probes are continuous-mode knobs; clearing them on tune
		// specs keeps spec keys (and hence dedup identity) stable.
		s.Drift = ""
		s.Probes = 0
	}
	return s
}

// Job returns the measurement identity of the spec's runs: benchmark,
// objective and seed, on the nominal platform.
func (s Spec) Job() dispatch.Job {
	n := s.Normalize()
	return dispatch.Job{Benchmark: n.Benchmark, Objective: n.Objective, Seed: n.Seed}
}

// Key returns the spec's canonical identity string — the store's dedup key.
// Warm-started runs carry a "/warm" suffix: their results depend on the
// history available at admission, so they must never be served as cached
// answers for cold submissions (or vice versa).
func (s Spec) Key() string {
	n := s.Normalize()
	k := fmt.Sprintf("%s/%s/%s/b%d/p%d/s%d", n.Benchmark, n.Algorithm, n.Objective, n.Budget, n.Pool, n.Seed)
	if n.Mode == ModeContinuous {
		// A session is deterministic per spec, so it dedupes like a tune
		// run; tune keys stay byte-identical to earlier releases.
		k += fmt.Sprintf("/continuous/%s/pr%d", n.Drift, n.Probes)
	}
	if n.WarmStart {
		k += "/warm"
	}
	return k
}

// FamilyKey returns the spec's transfer-learning family: benchmark,
// algorithm, objective, and pool size. Seed, budget, workers, and the
// warm-start flag are ignored — runs differing only in those measured the
// same configuration space toward the same metric, so their samples are
// valid training data for each other. Pool size stays in the key because
// the candidate pool (and hence the measured configurations' provenance)
// derives from it.
//
// Continuous runs form their own families: their final-epoch samples were
// measured under drifted platform conditions, so they must never feed warm
// starts for static tune runs (or vice versa).
func (s Spec) FamilyKey() string {
	n := s.Normalize()
	k := fmt.Sprintf("%s/%s/%s/p%d", n.Benchmark, n.Algorithm, n.Objective, n.Pool)
	if n.Mode == ModeContinuous {
		k += "/continuous"
	}
	return k
}
