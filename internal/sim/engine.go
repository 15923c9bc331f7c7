// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives a set of cooperating processes. A process is a step
// function: the engine calls it at the process's start event and at every
// wake-up, on the goroutine that called Run, and the step runs until it
// would block. Every blocking primitive (Sleep, Store.Get and Put,
// Waiter.Wait) reports whether it finished in place; when one reports
// false it has registered the process for its wake-up, and the step
// returns and picks up there when called again. A step keeps whatever it
// needs across calls in its own state, and reports whether the process has
// finished. So at any instant either the engine loop or exactly one step is
// running, with no second thread and no switch between stacks. Event
// ordering is total — events at equal simulated times are processed in
// scheduling order — so a simulation with fixed inputs always produces
// identical results, which the auto-tuning experiments rely on.
//
// Higher-level primitives (Store, Waiter) are built on one engine
// operation: scheduling a callback, a process's step included, at a future
// simulated time.
package sim

import (
	"fmt"
	"sort"
)

// Engine is a discrete-event simulator, good for one Run. Create one with
// NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	events []event // binary min-heap on (time, seq)
	procs  []*Proc // every process spawned, in spawn order
	closed bool
}

// event is a callback due at a simulated time; a process's wake-up is its
// resume callback, made once at Spawn.
type event struct {
	time float64
	seq  uint64
	fn   func()
}

func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// NewEngine returns an engine with simulated time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Popped returns how many events the engine has popped: every event
// scheduled so far less those still queued.
func (e *Engine) Popped() int64 { return int64(e.seq) - int64(len(e.events)) }

// Schedule runs fn after delay seconds of simulated time. A negative or NaN
// delay is treated as zero. Schedule may be called from a step or from
// another event callback; on an engine whose Run has returned it panics,
// because the callback could never fire.
func (e *Engine) Schedule(delay float64, fn func()) {
	if e.closed {
		panic("sim: event scheduled on an engine that has finished running")
	}
	if !(delay > 0) {
		delay = 0
	}
	e.seq++
	ev := event{time: e.now + delay, seq: e.seq, fn: fn}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// After lets delay seconds of simulated time pass (a negative or NaN delay
// counts as zero) and reports whether they passed in place. When nothing
// else is due before then (a tie goes to the earlier event, which is never
// this one), scheduling fn would only have the engine pop it next, so After
// advances the clock and returns true, and the caller goes on as fn would
// have. Otherwise it schedules fn at that time and returns false.
func (e *Engine) After(delay float64, fn func()) bool {
	if !(delay > 0) {
		delay = 0
	}
	if wake := e.now + delay; len(e.events) == 0 || wake < e.events[0].time {
		e.now = wake
		return true
	}
	e.Schedule(delay, fn)
	return false
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the reference the vacated slot held
	h = h[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	e.events = h
	return top
}

// DeadlockError reports processes still blocked when the event queue drained.
type DeadlockError struct {
	// Parked lists the names of processes that can never run again.
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d process(es) parked forever: %v", len(d.Parked), d.Parked)
}

// Run processes events until the queue is empty. It returns a *DeadlockError
// if any spawned process is still blocked when no events remain. A panic in
// a step or an event callback propagates to Run's caller with its original
// value. Either way the engine is retired: a second Run fails.
func (e *Engine) Run() error {
	if e.closed {
		return fmt.Errorf("sim: engine already run")
	}
	defer func() { e.closed = true }()
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.time > e.now {
			e.now = ev.time
		}
		ev.fn()
	}
	// With no event left nothing is asleep: a process that has not
	// finished is blocked on a primitive nobody will ever signal.
	var stuck []string
	for _, p := range e.procs {
		if !p.done {
			stuck = append(stuck, p.name)
		}
	}
	if stuck == nil {
		return nil
	}
	sort.Strings(stuck)
	return &DeadlockError{Parked: stuck}
}

// Proc is a simulated process. Its methods must only be called from within
// the process's own step.
type Proc struct {
	eng    *Engine
	name   string
	resume func() // calls the step: the callback of every wake-up
	done   bool
}

// Spawn starts a new process at the current simulated time. The engine
// calls step with the process handle at its start and at every wake-up;
// step reports whether the process has finished. Spawn on an engine whose
// Run has returned panics: the process could never start.
func (e *Engine) Spawn(name string, step func(p *Proc) bool) *Proc {
	if e.closed {
		panic("sim: Spawn on an engine that has finished running: " + name)
	}
	p := &Proc{eng: e, name: name}
	p.resume = func() {
		if p.done {
			panic("sim: wake-up of a finished process: " + name)
		}
		p.done = step(p)
	}
	e.procs = append(e.procs, p)
	e.Schedule(0, p.resume)
	return p
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// Sleep advances the process by d seconds of simulated time and reports
// whether it did so in place; on false the step returns, and the engine
// calls it again d seconds on.
func (p *Proc) Sleep(d float64) bool { return p.eng.After(d, p.resume) }
