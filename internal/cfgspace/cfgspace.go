// Package cfgspace represents configuration parameter spaces for component
// applications and coupled workflows: typed integer parameters, constraint
// validation, uniform sampling, and the declared feature columns the ML
// surrogates read.
//
// A run reads the columns as codes (Coder.Ints into score.Matrix.Codes);
// Space.Features and Coder.Features, the float vectors, serve the perf
// harness's probes only, and CI fails when shipped Go outside this package
// and internal/perf names them.
package cfgspace

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	// Sampling only returns configurations for which Valid is true. It must
	// be pure and safe for concurrent use: SampleN calls it from several
	// goroutines at once, on slices it reuses, so it must neither keep nor
	// modify its argument.
	Valid func(Config) bool
	// Coder declares the space's feature columns; nil means the raw
	// parameters (see Columns).
	Coder *Coder
}

// Columns returns the space's feature columns: Coder, or the raw
// parameters when it is nil.
func (s *Space) Columns() *Coder {
	if s.Coder != nil {
		return s.Coder
	}
	return &Coder{Cols: s.Params}
}

// Coder declares a space's feature columns, each an integer lattice: the
// values Min, Min+Step, ..., Max of one Param. Ints derives a
// configuration's column values, so a column's rank among its lattice is
// (value−Min)/Step, arithmetic rather than discovery (score.Matrix.Codes).
// Immutable after construction.
type Coder struct {
	// Cols declares each column: its name and the lattice its values lie on.
	Cols []Param
	ints func(cfg Config, dst []int)
}

// NewCoder returns the coder of columns cols whose values ints writes into
// dst (len(dst) == len(cols)); nil ints copies the configuration, for
// columns that are its parameters. ints must be pure and safe for
// concurrent use, and must keep neither argument.
func NewCoder(cols []Param, ints func(cfg Config, dst []int)) *Coder {
	return &Coder{Cols: cols, ints: ints}
}

// Width returns the number of columns.
func (c *Coder) Width() int { return len(c.Cols) }

// Ints writes cfg's column values into dst (len(dst) == Width()).
func (c *Coder) Ints(cfg Config, dst []int) {
	if c.ints == nil {
		copy(dst, cfg)
		return
	}
	c.ints(cfg, dst)
}

// Names returns the column names, in order.
func (c *Coder) Names() []string {
	names := make([]string, len(c.Cols))
	for i, p := range c.Cols {
		names[i] = p.Name
	}
	return names
}

// Features returns cfg's columns as the float vector the ML models read.
func (c *Coder) Features(cfg Config) []float64 {
	v, x := make([]int, len(c.Cols)), make([]float64, len(c.Cols))
	c.Ints(cfg, v)
	for i, n := range v {
		x[i] = float64(n)
	}
	return x
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
//
// The result and the rng's state afterwards do not depend on GOMAXPROCS:
// the caller draws every candidate in order and numbers them in order, and
// only Valid and the valid rows' hashes run on helper goroutines (see
// sampler.run).
func (s *Space) SampleN(rng *rand.Rand, n int) []Config {
	cfgs, _ := s.SampleDraws(rng, n)
	return cfgs
}

// SampleDraws is SampleN that also returns how many candidates it drew:
// the configurations it returns, and the rest invalid or repeats.
func (s *Space) SampleDraws(rng *rand.Rand, n int) ([]Config, int) {
	if n <= 0 {
		return nil, 0
	}
	sm := newSampler(s, rng, n)
	defer sm.stop()
	sm.run()
	if len(sm.out) == 0 {
		panic(fmt.Sprintf("cfgspace: no valid configuration found after %d attempts", maxSampleAttempts))
	}
	return sm.out, sm.draws
}

const (
	// sampleBlock is how many candidates the sampler draws into one block
	// before a helper validates them: large enough that hand-offs are rare,
	// small enough that the ring adds ~3 % to a 100k pool's allocation.
	sampleBlock = 1024
	// sampleSlab is how many accepted configurations share one backing
	// array: few allocations, while a retained configuration pins at most
	// 31 others rather than the whole pool.
	sampleSlab = 32
	// sampleRing is how many block buffers the sampler cycles through: the
	// caller draws into one while helpers validate the others, so a helper
	// that is slow to be scheduled costs slack rather than a stall.
	sampleRing = 4
)

// sampler is SampleN's state. Each candidate either adds a configuration or
// adds one to idle, so from any numbered prefix the serial loop is certain
// to draw min(n-len(out), maxSampleAttempts-idle) more candidates: that is
// how far ahead of the numbering the caller may draw.
type sampler struct {
	valid func(Config) bool
	rng   *rand.Rand
	axes  []axis
	n     int

	out  []Config
	seen *Numbering
	slab []int // the unused tail of the newest slab
	idle int   // consecutive fruitless candidates numbered so far

	helpers int
	work    chan *candidates // to the helpers, in draw order
	running sync.WaitGroup   // the helpers started
	ring    []*candidates    // block buffers, used round robin
	drawn   int              // blocks dispatched so far
	queued  int              // of which not yet numbered
	draws   int              // candidates drawn, in blocks or one by one
}

// axis is one parameter as the draw reads it.
type axis struct{ min, step, count int }

// candidates is one block of drawn rows, flat, with each row's validity and,
// for a valid row, its Numbering hash.
type candidates struct {
	rows []int
	ok   []bool
	hash []uint64
	done chan any // the helper's recovered panic, or nil
}

func newSampler(s *Space, rng *rand.Rand, n int) *sampler {
	sm := &sampler{valid: s.Valid, rng: rng, axes: make([]axis, len(s.Params)), n: n}
	for i, p := range s.Params {
		sm.axes[i] = axis{p.Min, p.Step, p.Count()}
	}
	sm.out = make([]Config, 0, n)
	sm.seen = NewNumbering(n, func(id int32) []int { return sm.out[id] })
	if s.Valid != nil {
		sm.helpers = min(runtime.GOMAXPROCS(0), sampleRing) - 1
	}
	return sm
}

// run samples until the pool is full or maxSampleAttempts consecutive
// candidates added nothing. While two blocks' worth of candidates are certain
// to be drawn — so the caller has a next block to draw while a helper
// validates this one — the caller draws whole blocks and hands them to the
// helpers, numbering the oldest once every buffer is busy; otherwise — small
// pools, the tail of a large one, nil Valid, one core — it draws, validates
// and numbers one candidate at a time, with no goroutine.
func (sm *sampler) run() {
	var cfg Config
	for {
		free := min(sm.n-len(sm.out), maxSampleAttempts-sm.idle) - sm.queued*sampleBlock
		switch {
		case sm.helpers > 0 && free >= 2*sampleBlock && sm.queued < sampleRing:
			sm.dispatch()
		case sm.queued > 0:
			sm.numberOldest()
		case free > 0:
			if cfg == nil {
				cfg = make(Config, len(sm.axes))
			}
			sm.draws += free
			for ; free > 0; free-- {
				sm.draw(cfg)
				if sm.valid == nil || sm.valid(cfg) {
					sm.offer(cfg, hashTuple(cfg))
				} else {
					sm.idle++
				}
			}
		default:
			return
		}
	}
}

// draw fills cfg with one uniform candidate.
func (sm *sampler) draw(cfg []int) {
	for i, a := range sm.axes {
		cfg[i] = a.min + sm.rng.IntN(a.count)*a.step
	}
}

// offer numbers a valid candidate whose hash is h, keeping it if it is new.
func (sm *sampler) offer(cfg []int, h uint64) {
	if _, fresh := sm.seen.id(cfg, h); !fresh {
		sm.idle++
		return
	}
	dim := len(cfg)
	if len(sm.slab) < dim {
		sm.slab = make([]int, min(sampleSlab, sm.n-len(sm.out))*dim)
	}
	c := Config(sm.slab[:dim:dim])
	copy(c, cfg)
	sm.slab = sm.slab[dim:]
	sm.out = append(sm.out, c)
	sm.idle = 0
}

// dispatch draws the next block into a free buffer and queues it for the
// helpers, starting them on first use.
func (sm *sampler) dispatch() {
	if sm.work == nil {
		// At most sampleRing blocks are queued, so a send never blocks.
		sm.work = make(chan *candidates, sampleRing)
		sm.running.Add(sm.helpers)
		for range sm.helpers {
			go func() {
				defer sm.running.Done()
				for b := range sm.work {
					b.done <- b.validate(sm.valid)
				}
			}()
		}
	}
	dim := len(sm.axes)
	if len(sm.ring) < sampleRing {
		sm.ring = append(sm.ring, &candidates{
			rows: make([]int, sampleBlock*dim),
			ok:   make([]bool, sampleBlock),
			hash: make([]uint64, sampleBlock),
			done: make(chan any, 1),
		})
	}
	b := sm.ring[sm.drawn%sampleRing]
	for r := range sampleBlock {
		sm.draw(b.rows[r*dim : (r+1)*dim])
	}
	sm.drawn++
	sm.queued++
	sm.draws += sampleBlock
	sm.work <- b
}

// validate runs Valid over the block and hashes the valid rows, returning a
// panic instead of raising it so the caller raises it.
func (b *candidates) validate(valid func(Config) bool) (p any) {
	defer func() { p = recover() }()
	dim := len(b.rows) / len(b.ok)
	for r := range b.ok {
		row := b.rows[r*dim : (r+1)*dim : (r+1)*dim]
		if b.ok[r] = valid(row); b.ok[r] {
			b.hash[r] = hashTuple(row)
		}
	}
	return nil
}

// numberOldest waits for the oldest queued block and numbers its rows in
// draw order.
func (sm *sampler) numberOldest() {
	b := sm.ring[(sm.drawn-sm.queued)%sampleRing]
	sm.queued--
	if p := <-b.done; p != nil {
		panic(p)
	}
	dim := len(sm.axes)
	for r, ok := range b.ok {
		if ok {
			sm.offer(b.rows[r*dim:(r+1)*dim], b.hash[r])
		} else {
			sm.idle++
		}
	}
}

// stop releases the helpers and waits for them to exit.
func (sm *sampler) stop() {
	if sm.work != nil {
		close(sm.work)
		sm.running.Wait()
	}
}

// Numbering numbers int tuples by first occurrence: equal tuples share an
// id, and ids count from 0 in the order their tuples were first seen. It is
// the repository's one such table (SampleN's distinct-set, acm's model
// cells of the low-fidelity pool pass, a ground truth's index of its
// measured configurations): an open-addressed array of ids, probed by a
// hash of the values and verified against the tuple that holds the id,
// which the caller's tuple(id) returns — no key built per tuple.
type Numbering struct {
	slots []int32 // id+1 of the tuple that landed here; 0 is empty
	tuple func(id int32) []int
	n     int32
}

// NewNumbering returns a table sized for capacity distinct tuples, which
// doubles whenever a new tuple would fill it past half; tuple(id) must
// return the tuple that ID numbered id, equal values on every call, though
// it may recompute them into scratch rather than keep the tuple.
func NewNumbering(capacity int, tuple func(id int32) []int) *Numbering {
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	return &Numbering{slots: make([]int32, size), tuple: tuple}
}

// ID returns t's number and whether t is new.
func (nb *Numbering) ID(t []int) (id int32, fresh bool) { return nb.id(t, hashTuple(t)) }

// hashTuple is the Numbering's hash: FNV-1a over whole values.
func hashTuple(t []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// id is ID for a tuple whose hashTuple is h.
func (nb *Numbering) id(t []int, h uint64) (id int32, fresh bool) {
	mask := len(nb.slots) - 1
	for at := int(h>>32^h) & mask; ; at = (at + 1) & mask {
		id := nb.slots[at] - 1
		if id < 0 {
			if 2*int(nb.n+1) > len(nb.slots) {
				nb.grow()
				return nb.id(t, h)
			}
			nb.n++
			nb.slots[at] = nb.n
			return nb.n - 1, true
		}
		if slices.Equal(t, nb.tuple(id)) {
			return id, false
		}
	}
}

// Find returns t's number, or false when t was never numbered: id's probe
// without the insert, so any number of goroutines may Find in a table no
// one is numbering into.
func (nb *Numbering) Find(t []int) (id int32, ok bool) {
	h := hashTuple(t)
	mask := len(nb.slots) - 1
	for at := int(h>>32^h) & mask; ; at = (at + 1) & mask {
		if id = nb.slots[at] - 1; id < 0 || slices.Equal(t, nb.tuple(id)) {
			return id, id >= 0
		}
	}
}

// grow doubles the table and re-places every id by its tuple's hash.
func (nb *Numbering) grow() {
	slots := make([]int32, 2*len(nb.slots))
	mask := len(slots) - 1
	for id := range nb.n {
		h := hashTuple(nb.tuple(id))
		at := int(h>>32^h) & mask
		for slots[at] != 0 {
			at = (at + 1) & mask
		}
		slots[at] = id + 1
	}
	nb.slots = slots
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

// Features returns a configuration's feature columns (Columns) as floats,
// the vector the ML models read.
func (s *Space) Features(cfg Config) []float64 { return s.Columns().Features(cfg) }

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
// joint constraint over the concatenated configuration. Parameter and
// column names are prefixed "prefix.name" to stay unique. Its coder joins
// the parts' Columns side by side, so part k's columns start where part
// k−1's end, from column 0.
func Concat(joint func(Config) bool, parts ...NamedSpace) *Space {
	type slot struct {
		lo, hi, at int // the part's parameters are cfg[lo:hi], its columns start at at
		valid      func(Config) bool
		coder      *Coder
	}
	var params, cols []Param
	var slots []slot
	for _, part := range parts {
		sl := slot{lo: len(params), at: len(cols), valid: part.Space.Valid, coder: part.Space.Columns()}
		for _, p := range part.Space.Params {
			p.Name = part.Name + "." + p.Name
			params = append(params, p)
		}
		for _, p := range sl.coder.Cols {
			p.Name = part.Name + "." + p.Name
			cols = append(cols, p)
		}
		sl.hi = len(params)
		slots = append(slots, sl)
	}
	coder := NewCoder(cols, func(cfg Config, dst []int) {
		for _, sl := range slots {
			sl.coder.Ints(cfg[sl.lo:sl.hi:sl.hi], dst[sl.at:sl.at+sl.coder.Width()])
		}
	})
	valid := func(cfg Config) bool {
		for _, sl := range slots {
			if sl.valid != nil && !sl.valid(cfg[sl.lo:sl.hi:sl.hi]) {
				return false
			}
		}
		return joint == nil || joint(cfg)
	}
	return &Space{Params: params, Valid: valid, Coder: coder}
}

// NamedSpace pairs a component name with its parameter space for Concat.
type NamedSpace struct {
	Name  string
	Space *Space
}
