package cfgspace

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestParamCountValueRoundTrip(t *testing.T) {
	p := NewSteppedParam("outputs", 4, 32, 4) // 4, 8, ..., 32
	if got := p.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	for i := 0; i < p.Count(); i++ {
		v := p.Value(i)
		if !p.Contains(v) {
			t.Fatalf("Value(%d) = %d not Contains", i, v)
		}
	}
	if p.Contains(5) || p.Contains(36) || p.Contains(3) {
		t.Fatal("Contains accepted an inadmissible value")
	}
}

func TestParamNormalizeBounds(t *testing.T) {
	p := NewParam("procs", 2, 1085)
	if p.Normalize(2) != 0 || p.Normalize(1085) != 1 {
		t.Fatalf("Normalize endpoints = %v, %v", p.Normalize(2), p.Normalize(1085))
	}
}

func testSpace() *Space {
	return &Space{
		Params: []Param{
			NewParam("procs", 2, 100),
			NewParam("ppn", 1, 35),
		},
		Valid: func(c Config) bool {
			nodes := (c[0] + c[1] - 1) / c[1]
			return nodes <= 8
		},
	}
}

func TestSampleAlwaysValidProperty(t *testing.T) {
	s := testSpace()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		cfg := s.Sample(rng)
		return s.IsValid(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNDistinct(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewPCG(1, 2))
	cfgs := s.SampleN(rng, 300)
	seen := map[string]bool{}
	for _, c := range cfgs {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate configuration %v", c)
		}
		seen[k] = true
		if !s.IsValid(c) {
			t.Fatalf("invalid configuration sampled: %v", c)
		}
	}
}

// TestSampleNSmallSpace: a space with fewer than n distinct valid
// configurations returns them all instead of drawing forever.
func TestSampleNSmallSpace(t *testing.T) {
	s := &Space{Params: []Param{NewParam("x", 1, 3)}}
	cfgs := s.SampleN(rand.New(rand.NewPCG(1, 2)), 5)
	if len(cfgs) != 3 {
		t.Fatalf("SampleN(5) over a 3-value space returned %d configurations: %v", len(cfgs), cfgs)
	}
	seen := map[int]bool{}
	for _, c := range cfgs {
		if seen[c[0]] || !s.IsValid(c) {
			t.Fatalf("duplicate or invalid configuration in %v", cfgs)
		}
		seen[c[0]] = true
	}
}

// serialSampleN is the one-candidate-at-a-time loop SampleN must match: the
// same pool and the same rng state afterwards.
func serialSampleN(s *Space, rng *rand.Rand, n int) []Config {
	var out []Config
	seen := map[string]bool{}
	cfg := make(Config, len(s.Params))
	for idle := 0; len(out) < n && idle < maxSampleAttempts; idle++ {
		for i, p := range s.Params {
			cfg[i] = p.Value(rng.IntN(p.Count()))
		}
		if (s.Valid == nil || s.Valid(cfg)) && !seen[cfg.Key()] {
			seen[cfg.Key()] = true
			out = append(out, cfg.Clone())
			idle = -1
		}
	}
	return out
}

// TestSampleNWorkerCounts: at every GOMAXPROCS, SampleN returns the serial
// loop's pool and leaves the rng where the serial loop does — over pools
// that fill, a 3-value space that runs out (with and without Valid, so
// both the inline and the helper path end on maxSampleAttempts), and a
// space whose constraint rejects more than 99 % of draws.
func TestSampleNWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tiny := &Space{Params: []Param{NewParam("x", 1, 3)}}
	tinyValid := &Space{Params: tiny.Params, Valid: func(Config) bool { return true }}
	sparse := &Space{
		Params: []Param{NewParam("a", 0, 99), NewParam("b", 0, 99), NewSteppedParam("c", 0, 198, 2)},
		Valid:  func(c Config) bool { return c[0] == c[1] && c[2] < 100 },
	}
	cases := []struct {
		name  string
		space *Space
		n     int
	}{
		{"small", testSpace(), 300},
		{"large", testSpace(), 2500},
		{"tiny", tiny, 5},
		{"tiny-valid", tinyValid, 5000},
		{"sparse", sparse, 3000},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewPCG(3, 9))
		want := serialSampleN(c.space, rng, c.n)
		wantNext := rng.Uint64()
		for _, width := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(width)
			rng := rand.New(rand.NewPCG(3, 9))
			got := c.space.SampleN(rng, c.n)
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s at width %d: pool of %d differs from the serial loop's %d", c.name, width, len(got), len(want))
			}
			if next := rng.Uint64(); next != wantNext {
				t.Errorf("%s at width %d: rng left at %#x, serial loop at %#x", c.name, width, next, wantNext)
			}
		}
	}
}

// TestSampleNValidPanicReachesCaller: a Valid that panics on a helper
// panics in SampleN's caller, as it would in the serial loop.
func TestSampleNValidPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := &Space{Params: []Param{NewParam("x", 0, 1<<20)}, Valid: func(c Config) bool {
		if c[0]%5000 == 7 {
			panic("bad row")
		}
		return true
	}}
	defer func() {
		if p := recover(); p != "bad row" {
			t.Fatalf("recovered %v, want the Valid panic", p)
		}
	}()
	s.SampleN(rand.New(rand.NewPCG(1, 1)), 100000)
	t.Fatal("SampleN returned")
}

// TestNumberingFirstSeen: ids follow first occurrence, equal tuples share
// one, and tuples of different lengths or colliding prefixes stay apart.
func TestNumberingFirstSeen(t *testing.T) {
	tuples := [][]int{{1, 2}, {2, 1}, {1, 2}, {}, {1}, {1, 2, 0}, nil, {2, 1}, {-1, 1 << 40}}
	var first []int
	nb := NewNumbering(len(tuples), func(id int32) []int { return tuples[first[id]] })
	var ids []int32
	for i, tuple := range tuples {
		id, fresh := nb.ID(tuple)
		if fresh {
			first = append(first, i)
		}
		ids = append(ids, id)
	}
	wantIDs, wantFirst := []int32{0, 1, 0, 2, 3, 4, 2, 1, 5}, []int{0, 1, 3, 4, 5, 8}
	if !slices.Equal(ids, wantIDs) || !slices.Equal(first, wantFirst) {
		t.Fatalf("numbered %v, first %v; want %v, %v", ids, first, wantIDs, wantFirst)
	}
}

// TestNumberingGrows: a table sized for one tuple numbers 5000 distinct
// tuples, each seen three times, as first occurrence, doubling as it fills.
func TestNumberingGrows(t *testing.T) {
	var tuples [][]int
	nb := NewNumbering(1, func(id int32) []int { return tuples[id] })
	for round := 0; round < 3; round++ {
		for i := 0; i < 5000; i++ {
			tuple := []int{i % 71, i / 71}
			id, fresh := nb.ID(tuple)
			if fresh {
				tuples = append(tuples, tuple)
			}
			if id != int32(i) || fresh != (round == 0) {
				t.Fatalf("round %d: tuple %v numbered %d (fresh %v), want %d", round, tuple, id, fresh, i)
			}
		}
	}
	if len(nb.slots) != 16384 {
		t.Fatalf("%d slots for 5000 tuples, want 16384", len(nb.slots))
	}
}

func TestRawSize(t *testing.T) {
	s := testSpace()
	if got := s.RawSize(); got != 99*35 {
		t.Fatalf("RawSize = %v, want %v", got, 99*35)
	}
}

func TestValidFractionMatchesExhaustive(t *testing.T) {
	s := testSpace()
	// Exhaustive count of valid configurations.
	valid, total := 0, 0
	for procs := 2; procs <= 100; procs++ {
		for ppn := 1; ppn <= 35; ppn++ {
			total++
			if (procs+ppn-1)/ppn <= 8 {
				valid++
			}
		}
	}
	want := float64(valid) / float64(total)
	rng := rand.New(rand.NewPCG(9, 9))
	got := s.ValidFraction(rng, 200000)
	if diff := got - want; diff > 0.01 || diff < -0.01 {
		t.Fatalf("ValidFraction = %v, exhaustive = %v", got, want)
	}
}

func TestConfigKeyAndString(t *testing.T) {
	c := Config{561, 25, 1}
	if c.Key() != "561,25,1" {
		t.Fatalf("Key = %q", c.Key())
	}
	if c.String() != "(561,25,1)" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestConcatPrefixesAndJointConstraint(t *testing.T) {
	a := &Space{Params: []Param{NewParam("procs", 1, 10)}}
	b := &Space{
		Params: []Param{NewParam("procs", 1, 10)},
		Valid:  func(c Config) bool { return c[0]%2 == 0 },
	}
	joint := func(c Config) bool { return c[0]+c[1] <= 12 }
	s := Concat(joint, NamedSpace{"sim", a}, NamedSpace{"viz", b})
	if s.Params[0].Name != "sim.procs" || s.Params[1].Name != "viz.procs" {
		t.Fatalf("param names = %v, %v", s.Params[0].Name, s.Params[1].Name)
	}
	if s.IsValid(Config{3, 3}) {
		t.Fatal("component constraint (even) not enforced")
	}
	if s.IsValid(Config{9, 4}) {
		t.Fatal("joint constraint not enforced")
	}
	if !s.IsValid(Config{3, 4}) {
		t.Fatal("valid configuration rejected")
	}
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 100; i++ {
		if cfg := s.Sample(rng); !s.IsValid(cfg) {
			t.Fatalf("sampled invalid config %v", cfg)
		}
	}
}

func TestNormalizedInUnitInterval(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 200; i++ {
		cfg := s.Sample(rng)
		for _, x := range s.Normalized(cfg) {
			if x < 0 || x > 1 {
				t.Fatalf("normalized value %v out of [0,1] for %v", x, cfg)
			}
		}
	}
}
