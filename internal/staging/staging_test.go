package staging

import (
	"math"
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

func TestPlanChunksSumToPayloadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		payload := 1 + rng.Float64()*1e9
		chunk := 1 + rng.Float64()*1e8
		p := NewPlan(payload, chunk)
		sum := 0.0
		for i := 0; i < p.PerStep; i++ {
			size := p.Size(i)
			if size <= 0 {
				return false
			}
			sum += size
		}
		return math.Abs(sum-payload) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
	e.Spawn("producer", func(p *sim.Proc) {
		for s := 0; s < steps; s++ {
			p.Sleep(0.01) // compute
			ch.SendStep(p, func(b float64) float64 { return 1e-3 })
		}
		prodDone = p.Now()
	})
	e.Spawn("consumer", func(p *sim.Proc) {
		for s := 0; s < steps; s++ {
			ch.RecvStep(p, func(b float64) float64 { return 0.5e-3 })
			p.Sleep(0.02)
		}
		consDone = p.Now()
	})
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
		var prodDone float64
		e.Spawn("producer", func(p *sim.Proc) {
			for s := 0; s < steps; s++ {
				p.Sleep(0.001)
				ch.SendStep(p, nil)
			}
			prodDone = p.Now()
		})
		e.Spawn("consumer", func(p *sim.Proc) {
			for s := 0; s < steps; s++ {
				ch.RecvStep(p, nil)
				p.Sleep(consumerStep)
			}
		})
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
	e := sim.NewEngine()
	ch := NewChannel(e, NewPlan(1, 0), 1, -5)
	// Producer can buffer DefaultSlots chunks without a consumer...
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < DefaultSlots; i++ {
			ch.SendStep(p, nil)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("filling %d slots should not block forever: %v", DefaultSlots, err)
	}
	// ...but one more chunk deadlocks without a daemon.
	e2 := sim.NewEngine()
	ch2 := NewChannel(e2, NewPlan(1, 0), 1, 0)
	e2.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i <= DefaultSlots; i++ {
			ch2.SendStep(p, nil)
		}
	})
	if err := e2.Run(); err == nil {
		t.Fatal("overfilling the send queue without a daemon should deadlock")
	}
}
