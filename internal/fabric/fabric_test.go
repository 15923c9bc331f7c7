package fabric

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ceal/internal/sim"
)

func TestSingleFlowFullCapacity(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, 100) // 100 B/s
	var finished float64
	e.Spawn("tx", func(p *sim.Proc) {
		l.Transfer(p, 500, 0, 0)
		finished = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(finished-5.0) > 1e-6 {
		t.Fatalf("finish time = %v, want 5.0", finished)
	}
}

func TestSingleFlowRateCap(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, 100)
	var finished float64
	e.Spawn("tx", func(p *sim.Proc) {
		l.Transfer(p, 500, 50, 0) // capped to 50 B/s
		finished = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(finished-10.0) > 1e-6 {
		t.Fatalf("finish time = %v, want 10.0", finished)
	}
}

func TestLatencyOnly(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, 100)
	var finished float64
	e.Spawn("tx", func(p *sim.Proc) {
		l.Transfer(p, 0, 0, 2.5)
		finished = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(finished-2.5) > 1e-9 {
		t.Fatalf("finish time = %v, want 2.5", finished)
	}
}

func TestTwoEqualFlowsShareCapacity(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, 100)
	var t1, t2 float64
	e.Spawn("tx1", func(p *sim.Proc) {
		l.Transfer(p, 500, 0, 0)
		t1 = p.Now()
	})
	e.Spawn("tx2", func(p *sim.Proc) {
		l.Transfer(p, 500, 0, 0)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both flows run concurrently at 50 B/s each: 10 s.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Fatalf("finish times = %v, %v, want 10, 10", t1, t2)
	}
}

func TestWaterFillingRedistributesCappedLeftover(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, 100)
	var tCapped, tFree float64
	e.Spawn("capped", func(p *sim.Proc) {
		l.Transfer(p, 100, 10, 0) // capped at 10 B/s -> 10 s
		tCapped = p.Now()
	})
	e.Spawn("free", func(p *sim.Proc) {
		l.Transfer(p, 450, 0, 0) // gets the other 90 B/s -> 5 s
		tFree = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tCapped-10) > 1e-6 {
		t.Fatalf("capped flow finish = %v, want 10", tCapped)
	}
	if math.Abs(tFree-5) > 1e-6 {
		t.Fatalf("free flow finish = %v, want 5", tFree)
	}
}

func TestLateJoinerSlowsExistingFlow(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, 100)
	var tFirst float64
	e.Spawn("first", func(p *sim.Proc) {
		l.Transfer(p, 1000, 0, 0)
		tFirst = p.Now()
	})
	e.Spawn("second", func(p *sim.Proc) {
		p.Sleep(5) // first has moved 500 bytes alone
		l.Transfer(p, 250, 0, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// After t=5: both at 50 B/s. Second finishes at t=10 (250 bytes). First
	// then has 250 left, alone at 100 B/s: finishes at 12.5.
	if math.Abs(tFirst-12.5) > 1e-6 {
		t.Fatalf("first finish = %v, want 12.5", tFirst)
	}
}

func TestBytesConservedProperty(t *testing.T) {
	// Property: for any set of flows, every byte requested is delivered, and
	// total delivery time is at least totalBytes/capacity.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		e := sim.NewEngine()
		capacity := 10 + rng.Float64()*1000
		l := NewLink(e, capacity)
		n := 1 + rng.IntN(12)
		var total float64
		var makespan float64
		for i := 0; i < n; i++ {
			bytes := 1 + rng.Float64()*10000
			start := rng.Float64() * 3
			cap := math.Inf(1)
			if rng.IntN(2) == 0 {
				cap = capacity * (0.05 + rng.Float64())
			}
			total += bytes
			e.Spawn("tx", func(p *sim.Proc) {
				p.Sleep(start)
				l.Transfer(p, bytes, cap, 0)
				if p.Now() > makespan {
					makespan = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if math.Abs(l.BytesCarried()-total) > 1e-3*total {
			return false
		}
		return makespan >= total/capacity-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRatesNeverExceedCapacityProperty(t *testing.T) {
	// Property of the water-filling allocator itself: sum of rates is at
	// most capacity (within float tolerance), and no flow exceeds its cap.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		capacity := 1 + rng.Float64()*1000
		n := 1 + rng.IntN(20)
		flows := make([]*flow, n)
		for i := range flows {
			c := math.Inf(1)
			if rng.IntN(2) == 0 {
				c = rng.Float64() * capacity * 2
			}
			flows[i] = &flow{remaining: 1, cap: c}
		}
		(&Link{capacity: capacity, flows: flows}).waterFill()
		var sum float64
		for _, f := range flows {
			if f.rate > f.cap+1e-9 || f.rate < 0 {
				return false
			}
			sum += f.rate
		}
		return sum <= capacity*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillWorkConserving(t *testing.T) {
	// If total demand (caps) exceeds capacity, the full capacity is used.
	flows := []*flow{
		{remaining: 1, cap: 30},
		{remaining: 1, cap: math.Inf(1)},
		{remaining: 1, cap: math.Inf(1)},
	}
	(&Link{capacity: 100, flows: flows}).waterFill()
	sum := flows[0].rate + flows[1].rate + flows[2].rate
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("allocated %v of 100", sum)
	}
	if flows[0].rate != 30 {
		t.Fatalf("capped flow rate = %v, want 30", flows[0].rate)
	}
	if math.Abs(flows[1].rate-35) > 1e-9 || math.Abs(flows[2].rate-35) > 1e-9 {
		t.Fatalf("uncapped rates = %v, %v, want 35 each", flows[1].rate, flows[2].rate)
	}
}
