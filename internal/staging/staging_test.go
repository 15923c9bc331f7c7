package staging

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ceal/internal/fabric"
	"ceal/internal/sim"
)

func TestNewPlan(t *testing.T) {
	cases := []struct {
		payload, chunk float64
		perStep        int
		last           float64
	}{
		{100e6, 40e6, 3, 20e6},
		{100e6, 100e6, 1, 100e6},
		{100e6, 0, 1, 100e6},
		{100e6, 150e6, 1, 100e6},
		{0, 10, 0, 0},
		{99, 33, 3, 33},
	}
	for _, c := range cases {
		p := NewPlan(c.payload, c.chunk)
		if p.PerStep != c.perStep {
			t.Errorf("NewPlan(%v,%v).PerStep = %d, want %d", c.payload, c.chunk, p.PerStep, c.perStep)
		}
		if math.Abs(p.LastBytes-c.last) > 1e-6 {
			t.Errorf("NewPlan(%v,%v).LastBytes = %v, want %v", c.payload, c.chunk, p.LastBytes, c.last)
		}
	}
}

// TestPlanChunksSumToPayloadProperty: every chunk of a plan is positive
// and the chunks add up to the payload within 1e-3 bytes. The chunks are
// summed with Neumaier's compensated summation, so the test measures
// NewPlan's error, not a naive sum's. The explicit case is the draw of
// seed 0x479fb617ff0e9fa9: ~6.8e8 bytes in ~855-byte chunks, 797,588
// additions whose naive sum is 0.0048 bytes off. The draws are seeded, so
// a failure reproduces.
func TestPlanChunksSumToPayloadProperty(t *testing.T) {
	sums := func(payload, chunk float64) bool {
		p := NewPlan(payload, chunk)
		var sum, comp float64
		for i := 0; i < p.PerStep; i++ {
			size := p.Size(i)
			if size <= 0 {
				return false
			}
			next := sum + size
			if math.Abs(sum) >= math.Abs(size) {
				comp += (sum - next) + size
			} else {
				comp += (size - next) + sum
			}
			sum = next
		}
		return math.Abs(sum+comp-payload) < 1e-3
	}
	if !sums(6.818359333419687e8, 854.8728269780194) {
		t.Errorf("NewPlan(6.818359333419687e8, 854.8728269780194): chunks do not sum to the payload")
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		return sums(1+rng.Float64()*1e9, 1+rng.Float64()*1e8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: mrand.New(mrand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// producer returns a step that, steps times, computes for compute seconds
// and then sends a step's payload, and records when it finished.
func producer(ch *Channel, steps int, compute float64, emit func(float64) float64, done *float64) func(p *sim.Proc) bool {
	k, computed := 0, false
	return func(p *sim.Proc) bool {
		for ; k < steps; k++ {
			if !computed {
				computed = true
				if !p.Sleep(compute) {
					return false
				}
			}
			if !ch.SendStep(p, emit) {
				return false
			}
			computed = false
		}
		*done = p.Now()
		return true
	}
}

// consumer returns a step that, steps times, receives a step's payload and
// then computes for compute seconds, and records when it finished.
func consumer(ch *Channel, steps int, compute float64, ingest func(float64) float64, done *float64) func(p *sim.Proc) bool {
	k, received := 0, false
	return func(p *sim.Proc) bool {
		for ; k < steps; k++ {
			if !received {
				if !ch.RecvStep(p, ingest) {
					return false
				}
				received = true
				if !p.Sleep(compute) {
					return false
				}
			}
			received = false
		}
		*done = p.Now()
		return true
	}
}

func TestChannelEndToEnd(t *testing.T) {
	e := sim.NewEngine()
	link := fabric.NewLink(e, 1e9)
	plan := NewPlan(10e6, 4e6) // 3 chunks per step
	ch := NewChannel(e, plan, 1e9, 0)
	const steps = 5
	ch.StartDaemon(e, "daemon", link, steps, 1e-6)

	var prodDone, consDone float64
	e.Spawn("producer", producer(ch, steps, 0.01, func(b float64) float64 { return 1e-3 }, &prodDone))
	e.Spawn("consumer", consumer(ch, steps, 0.02, func(b float64) float64 { return 0.5e-3 }, &consDone))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if prodDone <= 0 || consDone <= prodDone {
		t.Fatalf("pipeline times wrong: producer %v, consumer %v", prodDone, consDone)
	}
	if ch.Buffered() != 0 {
		t.Fatalf("channel not drained: %d chunks left", ch.Buffered())
	}
	// All bytes crossed the link.
	if math.Abs(link.BytesCarried()-steps*10e6) > 1 {
		t.Fatalf("link carried %v bytes, want %v", link.BytesCarried(), steps*10e6)
	}
}

func TestChannelBackpressure(t *testing.T) {
	run := func(consumerStep float64) float64 {
		e := sim.NewEngine()
		link := fabric.NewLink(e, 1e12)
		ch := NewChannel(e, NewPlan(1e6, 0), 1e12, 0)
		const steps = 20
		ch.StartDaemon(e, "daemon", link, steps, 0)
		var prodDone, consDone float64
		e.Spawn("producer", producer(ch, steps, 0.001, nil, &prodDone))
		e.Spawn("consumer", consumer(ch, steps, consumerStep, nil, &consDone))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return prodDone
	}
	fast := run(0.0001)
	slow := run(0.1)
	if slow < fast*10 {
		t.Fatalf("backpressure missing: producer finished at %v (slow consumer) vs %v (fast)", slow, fast)
	}
}

func TestChannelDefaultSlots(t *testing.T) {
	var done float64
	// Producer can buffer DefaultSlots chunks without a consumer...
	e := sim.NewEngine()
	ch := NewChannel(e, NewPlan(1, 0), 1, -5)
	e.Spawn("producer", producer(ch, DefaultSlots, 0, nil, &done))
	if err := e.Run(); err != nil {
		t.Fatalf("filling %d slots should not block forever: %v", DefaultSlots, err)
	}
	// ...but one more chunk deadlocks without a daemon.
	e2 := sim.NewEngine()
	ch2 := NewChannel(e2, NewPlan(1, 0), 1, 0)
	e2.Spawn("producer", producer(ch2, DefaultSlots+1, 0, nil, &done))
	if err := e2.Run(); err == nil {
		t.Fatal("overfilling the send queue without a daemon should deadlock")
	}
}
