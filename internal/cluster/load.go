package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
)

// This file is the machine model's time-varying load layer: deterministic,
// seeded drift profiles that scale communication and compute costs as a
// function of a virtual clock. The clock itself lives in internal/drift
// (advanced by measurement cost); the cluster package only answers "what
// does the platform look like at virtual time t" and "what machine does
// that condition produce".
//
// Time is measured in *units*: one unit is the cost of the reference
// measurement at zero load (see drift.Env). Profiles are sized so that a
// typical tuning run (a few dozen measurements, ~1 unit each) completes
// before the interesting drift begins, leaving the change to land during
// the continuous driver's monitoring phase.

// Load is the instantaneous platform condition a drift profile reports.
// The zero value means the nominal, unloaded machine; UnderLoad of a zero
// Load returns the machine unchanged (bitwise), which is what makes a
// constant profile byte-identical to the static cluster. Load is a plain
// comparable struct so dispatchers can be memoized per condition.
type Load struct {
	// FabricContention is background traffic on the shared fabric:
	// effective bisection share becomes FabricShare/(1+FabricContention).
	FabricContention float64 `json:"fabric_contention,omitempty"`
	// PFSContention is neighbor I/O on the parallel file system:
	// PFSBandwidth and PFSNodeLimit shrink by 1/(1+PFSContention).
	PFSContention float64 `json:"pfs_contention,omitempty"`
	// MemoryContention is per-node memory-bandwidth pressure (DMA traffic
	// from fabric/IO adapters, co-resident system daemons, a throttled
	// memory controller): MemBWPerNode shrinks by 1/(1+MemoryContention),
	// which penalizes high-ppn/high-thread layouts disproportionately.
	MemoryContention float64 `json:"memory_contention,omitempty"`
	// ComputeSlowdown is per-node compute degradation (thermal throttling,
	// a failing DIMM): per-step compute time grows by (1+ComputeSlowdown).
	ComputeSlowdown float64 `json:"compute_slowdown,omitempty"`
	// LatencyFactor scales one-way message latency by (1+LatencyFactor).
	LatencyFactor float64 `json:"latency_factor,omitempty"`
}

// IsZero reports whether the load is the nominal, unloaded condition.
func (ld Load) IsZero() bool { return ld == Load{} }

// scaled returns the load with every field multiplied by f; f = 0 yields
// the zero load. Used by profiles that fade a peak condition in and out.
func (ld Load) scaled(f float64) Load {
	return Load{
		FabricContention: f * ld.FabricContention,
		PFSContention:    f * ld.PFSContention,
		MemoryContention: f * ld.MemoryContention,
		ComputeSlowdown:  f * ld.ComputeSlowdown,
		LatencyFactor:    f * ld.LatencyFactor,
	}
}

// UnderLoad returns the machine as the given platform condition sees it.
// A zero load returns m unchanged; every adjustment is gated on its field
// being positive so untouched parameters keep their exact bit patterns.
func (m Machine) UnderLoad(ld Load) Machine {
	if ld.IsZero() {
		return m
	}
	if ld.FabricContention > 0 {
		m.FabricShare /= 1 + ld.FabricContention
	}
	if ld.PFSContention > 0 {
		m.PFSBandwidth /= 1 + ld.PFSContention
		m.PFSNodeLimit /= 1 + ld.PFSContention
	}
	if ld.MemoryContention > 0 {
		m.MemBWPerNode /= 1 + ld.MemoryContention
	}
	if ld.LatencyFactor > 0 {
		m.NetLatency *= 1 + ld.LatencyFactor
	}
	if ld.ComputeSlowdown > 0 {
		m.ComputeSlowdown = m.Slowdown() * (1 + ld.ComputeSlowdown)
	}
	return m
}

// Profile reports the platform condition as a function of virtual time.
// Implementations are pure: At must be deterministic in t (any randomness
// is drawn once at construction from the profile's seed), so a run is
// reproducible per (seed, profile) at any measurement parallelism.
type Profile interface {
	Name() string
	At(t float64) Load
}

// ProfileNames lists the built-in drift profiles ParseProfile accepts.
func ProfileNames() []string {
	return []string{"none", "step", "ramp", "periodic", "neighbor", "nodeslow"}
}

// ParseProfile builds a named drift profile, with magnitudes and onsets
// jittered deterministically from seed. "none" (or "") is the constant
// zero-load profile.
//
// Composition note: in-situ coupling overlaps staging with computation, so
// pure fabric contention is largely invisible to end-to-end computer time.
// Profiles therefore lean on memory-bandwidth contention (which penalizes
// dense layouts and shifts the optimum toward lower ppn) and compute
// slowdown (which erodes the slack that lets serial analysis components
// pin the pipeline), with fabric/PFS pressure layered on top.
func ParseProfile(name string, seed uint64) (Profile, error) {
	rng := rand.New(rand.NewPCG(seed, 0xd21f7))
	jitter := func(base, frac float64) float64 {
		return base * (1 + frac*(2*rng.Float64()-1))
	}
	switch strings.ToLower(name) {
	case "", "none", "constant":
		return constantProfile{}, nil
	case "step":
		return &stepProfile{
			onset: jitter(120, 0.2),
			load: Load{
				FabricContention: jitter(2.0, 0.2),
				PFSContention:    jitter(2.0, 0.2),
				MemoryContention: jitter(1.8, 0.2),
				ComputeSlowdown:  jitter(2.5, 0.2),
			},
		}, nil
	case "ramp":
		return &rampProfile{
			start: jitter(100, 0.15),
			dur:   jitter(160, 0.15),
			max: Load{
				FabricContention: jitter(2.0, 0.15),
				PFSContention:    jitter(2.0, 0.15),
				MemoryContention: jitter(2.0, 0.15),
				ComputeSlowdown:  jitter(2.5, 0.2),
			},
		}, nil
	case "periodic":
		return &periodicProfile{
			onset:  jitter(60, 0.2),
			period: jitter(420, 0.15),
			max: Load{
				FabricContention: jitter(2.0, 0.15),
				MemoryContention: jitter(1.8, 0.15),
				ComputeSlowdown:  jitter(2.5, 0.15),
			},
		}, nil
	case "neighbor":
		return newNeighborProfile(rng), nil
	case "nodeslow":
		return &stepProfile{
			name:  "nodeslow",
			onset: jitter(140, 0.15),
			load: Load{
				ComputeSlowdown:  jitter(3.0, 0.2),
				MemoryContention: jitter(1.2, 0.2),
				LatencyFactor:    1.0,
			},
		}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown drift profile %q (want one of %s)",
			name, strings.Join(ProfileNames(), ", "))
	}
}

// constantProfile is the zero-load (no-drift) profile.
type constantProfile struct{}

func (constantProfile) Name() string    { return "none" }
func (constantProfile) At(float64) Load { return Load{} }

// stepProfile switches from nominal to a fixed load at onset and stays
// there — a neighbor application starting and never leaving, or a node
// degrading permanently (the "nodeslow" variant).
type stepProfile struct {
	name  string
	onset float64
	load  Load
}

func (p *stepProfile) Name() string {
	if p.name != "" {
		return p.name
	}
	return "step"
}

func (p *stepProfile) At(t float64) Load {
	if t < p.onset {
		return Load{}
	}
	return p.load
}

// rampProfile grows linearly from nominal at start to max over dur, then
// holds — slowly building background congestion.
type rampProfile struct {
	start, dur float64
	max        Load
}

func (p *rampProfile) Name() string { return "ramp" }

func (p *rampProfile) At(t float64) Load {
	if t <= p.start {
		return Load{}
	}
	f := (t - p.start) / p.dur
	if f > 1 {
		f = 1
	}
	return p.max.scaled(f)
}

// periodicProfile is diurnal-style congestion: zero until onset, then a
// raised-cosine oscillation between nominal and the peak condition with the
// given period.
type periodicProfile struct {
	onset, period float64
	max           Load
}

func (p *periodicProfile) Name() string { return "periodic" }

func (p *periodicProfile) At(t float64) Load {
	if t <= p.onset {
		return Load{}
	}
	f := 0.5 - 0.5*math.Cos(2*math.Pi*(t-p.onset)/p.period)
	return p.max.scaled(f)
}

// neighborJob is one pre-generated neighbor allocation: while active it
// adds its contention to the shared fabric, file system, and — via
// I/O-driven DMA traffic and platform-wide power capping — to memory
// bandwidth and effective compute speed.
type neighborJob struct {
	start, end float64
	load       Load
}

// neighborProfile models neighbor-job arrival and departure: a fixed roster
// of jobs drawn from the profile seed at construction, summed while active.
type neighborProfile struct {
	jobs []neighborJob
}

func newNeighborProfile(rng *rand.Rand) *neighborProfile {
	const jobCount = 6
	jobs := make([]neighborJob, jobCount)
	for i := range jobs {
		start := 80 + 400*rng.Float64()
		jobs[i] = neighborJob{
			start: start,
			end:   start + 80 + 180*rng.Float64(),
			load: Load{
				FabricContention: 0.8 + 1.4*rng.Float64(),
				PFSContention:    0.5 + 0.8*rng.Float64(),
				MemoryContention: 0.8 + 1.0*rng.Float64(),
				ComputeSlowdown:  1.2 + 1.2*rng.Float64(),
			},
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].start < jobs[b].start })
	return &neighborProfile{jobs: jobs}
}

func (p *neighborProfile) Name() string { return "neighbor" }

func (p *neighborProfile) At(t float64) Load {
	var ld Load
	for _, j := range p.jobs {
		if t >= j.start && t < j.end {
			ld.FabricContention += j.load.FabricContention
			ld.PFSContention += j.load.PFSContention
			ld.MemoryContention += j.load.MemoryContention
			ld.ComputeSlowdown += j.load.ComputeSlowdown
		}
	}
	return ld
}
