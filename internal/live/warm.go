package live

import (
	"slices"

	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// WarmFromHistory assembles transfer-learning data for a new run of spec
// from the history database — the wiring between the store's query API and
// tuner.WarmStart:
//
//   - workflow samples come from completed runs of the same spec family
//     (Spec.FamilyKey: benchmark/algorithm/objective/pool, ignoring seed,
//     budget, workers, and the warm flag);
//   - component samples come from every completed run — of any benchmark —
//     whose workflow shares a component application with spec's, filtered
//     to the same objective and mode (a component's standalone behaviour is
//     workflow-independent, not independent of a session's drifting load).
//
// The result is deterministic for a fixed database state: both query axes
// return store order, and assembly preserves it, sizing each slice once.
// Returns nil when the database has nothing to offer (or the benchmark is
// unknown), which callers treat as a cold start.
func WarmFromHistory(db histdb.Store, spec histdb.Spec) *tuner.WarmStart {
	n := spec.Normalize()
	comps := workflow.Declared(n.Benchmark)
	if comps == nil {
		return nil
	}
	w := &tuner.WarmStart{}

	// Phase-2 seeds: same-family workflow measurements.
	w.Samples = gather(db.BySpecFamily(n.FamilyKey()), func(rec *histdb.RunRecord) []tuner.Sample {
		if rec.Result == nil {
			return nil
		}
		return rec.Result.Samples
	})

	// Phase-1 seeds: standalone component measurements from any run sharing
	// a component, mapped through the donor's Components index.
	w.ComponentSamples = make([][]tuner.Sample, len(comps))
	for j, cs := range comps {
		if cs.Space == nil {
			continue
		}
		w.ComponentSamples[j] = gather(db.ByComponent(cs.Name), func(rec *histdb.RunRecord) []tuner.Sample {
			if d := rec.Spec.Normalize(); rec.Result == nil || d.Objective != n.Objective || d.Mode != n.Mode {
				return nil
			}
			idx := slices.Index(rec.Components, cs.Name)
			if idx < 0 || idx >= len(rec.Result.ComponentSamples) {
				return nil
			}
			return rec.Result.ComponentSamples[idx]
		})
	}

	if w.Empty() {
		return nil
	}
	return w
}

// gather concatenates pick's samples of every record, in record order, into
// one slice allocated at the total length; nil when there are none.
func gather(recs []*histdb.RunRecord, pick func(*histdb.RunRecord) []tuner.Sample) []tuner.Sample {
	total := 0
	for _, rec := range recs {
		total += len(pick(rec))
	}
	if total == 0 {
		return nil
	}
	out := make([]tuner.Sample, 0, total)
	for _, rec := range recs {
		out = append(out, pick(rec)...)
	}
	return out
}
