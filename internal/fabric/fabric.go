// Package fabric models a shared network as fluid flows over links.
//
// Each Link has a fixed aggregate capacity in bytes/second. Active flows on
// a link share that capacity by progressive filling (water-filling): every
// flow gets an equal share, except that a flow never exceeds its own rate
// cap (typically the endpoint NIC injection bandwidth), and capacity left
// over by capped flows is redistributed among the rest. Whenever a flow
// starts or completes, all flows' progress is settled and rates are
// recomputed, so contention between concurrently running workflow
// components is captured — the interaction that the paper's analytical
// coupling model cannot see.
package fabric

import (
	"math"

	"ceal/internal/sim"
)

// completionEpsilon treats a flow with at most this many bytes remaining as
// finished, absorbing float rounding from repeated settlements.
const completionEpsilon = 1e-6

// Link is a contended network link on a simulation engine.
type Link struct {
	eng      *sim.Engine
	capacity float64 // bytes/second
	flows    []*flow
	order    []*flow  // waterFill's scratch: flows by ascending cap
	idle     []*flow  // delivered flows, reused by later transfers
	timers   []*timer // fired timers, reused by later arms
	last     float64  // sim time of last settlement
	gen      uint64   // invalidates stale completion timers
	carried  float64  // total bytes fully delivered (for conservation checks)
}

type flow struct {
	total     float64 // bytes requested at Transfer
	remaining float64
	cap       float64 // per-flow rate cap (bytes/second)
	rate      float64
	done      sim.Waiter // holds the transferring process until delivery
	start     func()     // begins the flow: a latency's wake-up, bound once
}

// NewLink returns a link with the given aggregate capacity in bytes/second.
func NewLink(e *sim.Engine, capacityBps float64) *Link {
	if capacityBps <= 0 {
		panic("fabric: link capacity must be positive")
	}
	return &Link{eng: e, capacity: capacityBps}
}

// Capacity returns the aggregate link capacity in bytes/second.
func (l *Link) Capacity() float64 { return l.capacity }

// BytesCarried returns the total bytes fully delivered over the link.
func (l *Link) BytesCarried() float64 { return l.carried }

// Transfer moves bytes over the link on behalf of process p: latency
// seconds elapse before bandwidth is consumed, then the flow shares the link
// until delivery. maxRate caps this flow's share (use math.Inf(1) or <=0 for
// uncapped). Zero-byte transfers incur only the latency. Transfer reports
// whether the transfer finished in place, which only a zero-byte one can;
// on false p's step returns, and the engine calls it again once the bytes
// are delivered.
func (l *Link) Transfer(p *sim.Proc, bytes, maxRate, latency float64) bool {
	if bytes <= completionEpsilon {
		return !(latency > 0) || p.Sleep(latency)
	}
	if maxRate <= 0 {
		maxRate = math.Inf(1)
	}
	var f *flow
	if n := len(l.idle); n > 0 {
		f, l.idle = l.idle[n-1], l.idle[:n-1]
	} else {
		f = &flow{done: *sim.NewWaiter(l.eng)}
		f.start = func() { l.begin(f) }
	}
	f.total, f.remaining, f.cap, f.rate = bytes, bytes, maxRate, 0
	f.done.Wait(p)
	if !(latency > 0) || l.eng.After(latency, f.start) {
		l.begin(f)
	}
	return false
}

// begin puts f on the link once its latency has elapsed.
func (l *Link) begin(f *flow) {
	l.settle()
	l.flows = append(l.flows, f)
	l.recompute()
}

// settle advances every flow's progress to the current simulated time.
func (l *Link) settle() {
	now := l.eng.Now()
	dt := now - l.last
	if dt > 0 {
		for _, f := range l.flows {
			f.remaining -= f.rate * dt
		}
	}
	l.last = now
}

// recompute assigns water-filling rates, retires finished flows, and arms a
// timer for the next completion.
func (l *Link) recompute() {
	l.gen++
	// Retire flows that finished as of the last settlement.
	live := l.flows[:0]
	for _, f := range l.flows {
		if f.remaining <= completionEpsilon {
			// Retired flows are reused at once: only a superseded timer
			// (which returns before touching its flow) can still point here.
			l.carried += f.total
			f.done.WakeAll()
			l.idle = append(l.idle, f)
		} else {
			live = append(live, f)
		}
	}
	l.flows = live
	if len(l.flows) == 0 {
		return
	}
	l.waterFill()
	// Arm a timer for the earliest completion under the new rates.
	next := math.Inf(1)
	var first *flow
	for _, f := range l.flows {
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < next {
				next = t
				first = f
			}
		}
	}
	if first == nil {
		return // no capacity at all; flows wait for membership change
	}
	var t *timer
	if n := len(l.timers); n > 0 {
		t, l.timers = l.timers[n-1], l.timers[:n-1]
	} else {
		t = &timer{}
		t.fire = func() { l.fire(t) }
	}
	t.gen, t.first = l.gen, first
	l.eng.Schedule(next, t.fire)
}

// timer is an armed completion timer. A timer is reused once it has fired,
// so arming one allocates only while every timer made so far is pending.
type timer struct {
	gen   uint64 // the membership change it was armed at
	first *flow  // the flow it completes
	fire  func() // calls l.fire(t), bound once
}

// fire completes the flow t targets, unless a later membership change
// superseded t.
func (l *Link) fire(t *timer) {
	first, stale := t.first, t.gen != l.gen
	t.first = nil
	l.timers = append(l.timers, t)
	if stale {
		return
	}
	l.settle()
	// Rates were unchanged since the timer was armed, so the flow the
	// timer targeted has completed. Force its residual to zero: at large
	// simulated times rate*ulp(now) can exceed any fixed epsilon, and
	// without this clamp the link would spin on a residual that float
	// arithmetic can never drain.
	first.remaining = 0
	l.recompute()
}

// waterFill assigns progressive-filling rates: equal shares with per-flow
// caps, redistributing capacity left by capped flows.
//
// Flows are visited by ascending cap, ties in arrival order. The order is
// built by a plain insertion sort — exactly what sort.Slice, which this
// replaces, ran for n <= 12, and the paper's workflows put at most four
// flows on a link at once — so equal caps keep the order they always had
// and every rate keeps its bits (TestMeasurementsPinned in
// internal/workflow holds that). Beyond 12 flows sort.Slice left the order
// of equal caps unspecified; here it stays arrival order.
func (l *Link) waterFill() {
	order := l.order[:0]
	for _, f := range l.flows {
		i := len(order)
		order = append(order, f)
		for ; i > 0 && f.cap < order[i-1].cap; i-- {
			order[i] = order[i-1]
		}
		order[i] = f
	}
	l.order = order
	remaining := l.capacity
	n := len(order)
	for i, f := range order {
		share := remaining / float64(n-i)
		if f.cap < share {
			f.rate = f.cap
		} else {
			f.rate = share
		}
		remaining -= f.rate
		if remaining < 0 {
			remaining = 0
		}
	}
}
