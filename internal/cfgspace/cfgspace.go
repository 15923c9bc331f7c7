// Package cfgspace represents configuration parameter spaces for component
// applications and coupled workflows: typed integer parameters, constraint
// validation, uniform sampling, and feature encoding for the ML surrogates.
package cfgspace

import (
	"fmt"
	"math/rand/v2"
	"slices"
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

// maxSampleAttempts bounds consecutive fruitless draws; spaces whose valid
// region is vanishingly small are a modeling error worth failing loudly on.
const maxSampleAttempts = 100000

// Sample draws one valid configuration: SampleN(rng, 1)[0], panic included.
func (s *Space) Sample(rng *rand.Rand) Config { return s.SampleN(rng, 1)[0] }

// SampleN draws n distinct valid configurations uniformly at random; nil for
// n <= 0. A space holding fewer than n returns those it found, once
// maxSampleAttempts consecutive draws have added nothing, and panics if it
// found none.
func (s *Space) SampleN(rng *rand.Rand, n int) []Config {
	if n <= 0 {
		return nil
	}
	counts := make([]int, len(s.Params))
	for i, p := range s.Params {
		counts[i] = p.Count()
	}
	// Each accepted configuration is its own allocation: one backing array
	// would let any retained configuration pin the whole pool.
	out := make([]Config, 0, n)
	seen := NewNumbering(n, func(id int32) []int { return out[id] })
	cfg := make(Config, len(s.Params))
	for idle := 0; len(out) < n && idle < maxSampleAttempts; idle++ {
		for i, c := range counts {
			cfg[i] = s.Params[i].Value(rng.IntN(c))
		}
		if s.Valid != nil && !s.Valid(cfg) {
			continue
		}
		if _, fresh := seen.ID(cfg); fresh {
			out = append(out, cfg.Clone())
			idle = -1 // the count of fruitless draws restarts
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("cfgspace: no valid configuration found after %d attempts", maxSampleAttempts))
	}
	return out
}

// Numbering numbers int tuples by first occurrence: equal tuples share an
// id, and ids count from 0 in the order their tuples were first seen. It is
// the repository's one such table (SampleN's distinct-set, acm's distinct
// sub-configurations and their model cells): an open-addressed array of
// ids, probed by a hash of the values and verified against the tuple that
// holds the id, which the caller keeps — no key built per tuple.
type Numbering struct {
	slots []int32 // id+1 of the tuple that landed here; 0 is empty
	tuple func(id int32) []int
	n     int32
}

// NewNumbering returns a table for at most capacity distinct tuples;
// tuple(id) must return the tuple that ID numbered id.
func NewNumbering(capacity int, tuple func(id int32) []int) *Numbering {
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	return &Numbering{slots: make([]int32, size), tuple: tuple}
}

// ID returns t's number and whether t is new.
func (nb *Numbering) ID(t []int) (id int32, fresh bool) {
	h := uint64(14695981039346656037) // FNV-1a over whole values
	for _, v := range t {
		h = (h ^ uint64(v)) * 1099511628211
	}
	mask := len(nb.slots) - 1
	for at := int(h>>32^h) & mask; ; at = (at + 1) & mask {
		id := nb.slots[at] - 1
		if id < 0 {
			nb.n++
			nb.slots[at] = nb.n
			return nb.n - 1, true
		}
		if slices.Equal(t, nb.tuple(id)) {
			return id, false
		}
	}
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
