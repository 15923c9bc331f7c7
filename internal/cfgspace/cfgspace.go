// Package cfgspace represents configuration parameter spaces for component
// applications and coupled workflows: typed integer parameters, constraint
// validation, uniform sampling, and feature encoding for the ML surrogates.
package cfgspace

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

// Param is one integer configuration parameter taking the values
// Min, Min+Step, ..., Max (Table 1 in the paper).
type Param struct {
	Name string
	Min  int
	Max  int
	Step int
}

// NewParam returns a parameter with stride 1.
func NewParam(name string, min, max int) Param { return Param{Name: name, Min: min, Max: max, Step: 1} }

// NewSteppedParam returns a parameter with an explicit stride.
func NewSteppedParam(name string, min, max, step int) Param {
	return Param{Name: name, Min: min, Max: max, Step: step}
}

// Count returns the number of admissible values.
func (p Param) Count() int {
	if p.Step <= 0 || p.Max < p.Min {
		return 0
	}
	return (p.Max-p.Min)/p.Step + 1
}

// Value returns the i-th admissible value (0-based).
func (p Param) Value(i int) int { return p.Min + i*p.Step }

// Contains reports whether v is an admissible value.
func (p Param) Contains(v int) bool {
	return v >= p.Min && v <= p.Max && (v-p.Min)%p.Step == 0
}

// Normalize maps an admissible value to [0, 1].
func (p Param) Normalize(v int) float64 {
	if p.Count() <= 1 {
		return 0
	}
	return float64(v-p.Min) / float64(p.Max-p.Min)
}

// Config is a concrete assignment of values, ordered as the space's Params.
type Config []int

// Clone returns an independent copy.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Key returns a canonical string usable as a map key.
func (c Config) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// String formats the configuration like the paper's Table 2 tuples.
func (c Config) String() string { return "(" + c.Key() + ")" }

// Space is a parameter space with an optional joint validity constraint.
type Space struct {
	Params []Param
	// Valid reports whether a full assignment is admissible (nil = always).
	// Sampling only returns configurations for which Valid is true.
	Valid func(Config) bool
}

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.Params) }

// RawSize returns the size of the unconstrained cross-product.
func (s *Space) RawSize() float64 {
	size := 1.0
	for _, p := range s.Params {
		size *= float64(p.Count())
	}
	return size
}

// IsValid reports whether cfg has admissible per-parameter values and
// satisfies the joint constraint.
func (s *Space) IsValid(cfg Config) bool {
	if len(cfg) != len(s.Params) {
		return false
	}
	for i, p := range s.Params {
		if !p.Contains(cfg[i]) {
			return false
		}
	}
	return s.Valid == nil || s.Valid(cfg)
}

// maxSampleAttempts bounds rejection sampling; spaces whose valid region is
// vanishingly small are a modeling error worth failing loudly on.
const maxSampleAttempts = 100000

// Sample draws one valid configuration uniformly from the cross-product by
// rejection. It panics if the valid region appears to be empty.
func (s *Space) Sample(rng *rand.Rand) Config {
	cfg := make(Config, len(s.Params)) // rejected attempts are overwritten in place
	for attempt := 0; attempt < maxSampleAttempts; attempt++ {
		for i, p := range s.Params {
			cfg[i] = p.Value(rng.IntN(p.Count()))
		}
		if s.Valid == nil || s.Valid(cfg) {
			return cfg
		}
	}
	panic(fmt.Sprintf("cfgspace: no valid configuration found after %d attempts", maxSampleAttempts))
}

// SampleN draws n valid configurations, distinct by Key, uniformly at
// random; nil for n <= 0.
func (s *Space) SampleN(rng *rand.Rand, n int) []Config {
	if n <= 0 {
		return nil
	}
	seen := make(map[string]bool, n)
	out := make([]Config, 0, n)
	for len(out) < n {
		cfg := s.Sample(rng)
		k := cfg.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, cfg)
	}
	return out
}

// ValidFraction estimates by Monte Carlo the fraction of the raw
// cross-product that satisfies the joint constraint.
func (s *Space) ValidFraction(rng *rand.Rand, trials int) float64 {
	if s.Valid == nil {
		return 1
	}
	ok := 0
	cfg := make(Config, len(s.Params))
	for t := 0; t < trials; t++ {
		for i, p := range s.Params {
			cfg[i] = p.Value(rng.IntN(p.Count()))
		}
		if s.Valid(cfg) {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}

// Features encodes a configuration as raw float features for ML models.
func (s *Space) Features(cfg Config) []float64 {
	f := make([]float64, len(cfg))
	for i, v := range cfg {
		f[i] = float64(v)
	}
	return f
}

// Normalized encodes a configuration with each parameter mapped to [0, 1],
// for distance computations (GEIST's parameter graph).
func (s *Space) Normalized(cfg Config) []float64 {
	f := make([]float64, len(cfg))
	for i, v := range cfg {
		f[i] = s.Params[i].Normalize(v)
	}
	return f
}

// Concat builds a workflow space from component subspaces plus an optional
// joint constraint over the concatenated configuration. Parameter names are
// prefixed "prefix.name" to stay unique.
func Concat(joint func(Config) bool, parts ...NamedSpace) *Space {
	var params []Param
	var offsets []int
	for _, part := range parts {
		offsets = append(offsets, len(params))
		for _, p := range part.Space.Params {
			q := p
			q.Name = part.Name + "." + p.Name
			params = append(params, q)
		}
	}
	valid := func(cfg Config) bool {
		for i, part := range parts {
			if part.Space.Valid == nil {
				continue
			}
			lo := offsets[i]
			hi := lo + len(part.Space.Params)
			if !part.Space.Valid(cfg[lo:hi]) {
				return false
			}
		}
		return joint == nil || joint(cfg)
	}
	return &Space{Params: params, Valid: valid}
}

// NamedSpace pairs a component name with its parameter space for Concat.
type NamedSpace struct {
	Name  string
	Space *Space
}
