// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives a set of cooperating processes. Each process body runs
// as a coroutine (iter.Pull): the engine resumes it with a direct switch,
// the body runs until it blocks on a primitive, and control switches
// straight back. There is no Go-scheduler hop, no channel and no second
// thread in that handoff, so at any instant either the engine loop or
// exactly one process is running, all on the goroutine that called Run.
// Event ordering is total — events at equal simulated times are processed
// in scheduling order — so a simulation with fixed inputs always produces
// identical results, which the auto-tuning experiments rely on.
//
// Higher-level primitives (Store, Waiter) are built on two engine
// operations only: scheduling an event at a future simulated time, and
// parking/waking a process.
//
// A caveat for -race binaries only: through go1.24 the runtime retires a
// coroutine's goroutine without telling the race detector (coroexit bypasses
// goexit1's racegoend), so each spawned process leaks ~13 KB of detector
// state. Tests that run hundreds of thousands of simulations skip under
// -race for that reason; normal builds are unaffected.
package sim

import (
	"fmt"
	"iter"
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

// event is a callback or, when proc is set, the wake-up of a parked
// process — the common case, which therefore needs no closure.
type event struct {
	time float64
	seq  uint64
	fn   func()
	proc *Proc
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

// Schedule runs fn after delay seconds of simulated time. A negative or NaN
// delay is treated as zero. Schedule may be called from process context or
// from another event callback; on an engine whose Run has returned it
// panics, because the callback could never fire.
func (e *Engine) Schedule(delay float64, fn func()) {
	e.push(delay, event{fn: fn})
}

// push stamps ev with its due time and sequence number and sifts it into
// the heap.
func (e *Engine) push(delay float64, ev event) {
	if e.closed {
		panic("sim: event scheduled on an engine that has finished running")
	}
	if !(delay > 0) {
		delay = 0
	}
	e.seq++
	ev.time, ev.seq = e.now+delay, e.seq
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

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the references the vacated slot held
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

// DeadlockError reports processes still parked when the event queue drained.
type DeadlockError struct {
	// Parked lists the names of processes that can never run again.
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d process(es) parked forever: %v", len(d.Parked), d.Parked)
}

// Run processes events until the queue is empty. It returns a *DeadlockError
// if any spawned process is still blocked when no events remain. A panic in
// a process body or an event callback propagates to Run's caller with its
// original value. Either way every unfinished process is unwound before Run
// returns or panics, so an engine never leaks a coroutine.
func (e *Engine) Run() error {
	if e.closed {
		return fmt.Errorf("sim: engine already run")
	}
	defer e.close()
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.time > e.now {
			e.now = ev.time
		}
		if ev.proc != nil {
			ev.proc.resume()
		} else {
			ev.fn()
		}
	}
	// With no event left nothing is asleep: a process that has not
	// finished is parked on a primitive nobody will ever signal.
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

// close unwinds every unfinished process and retires the engine. The index
// loop covers a process spawned by a body's deferred call during unwinding.
func (e *Engine) close() {
	for i := 0; i < len(e.procs); i++ {
		e.procs[i].stop()
	}
	e.closed = true
}

// Proc is a simulated process. Its methods must only be called from within
// the process's own body function.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // engine side: switch into the body
	stop   func()                  // engine side: unwind a parked body
	yield  func(struct{}) bool     // body side: switch back to the engine
	parked bool
	done   bool
}

// killedSignal unwinds the body of a process stopped while parked.
type killedSignal struct{}

// Spawn starts a new process running body at the current simulated time.
// body receives the process handle for use with blocking primitives. Spawn
// on an engine whose Run has returned panics: the process could never start.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on an engine that has finished running: " + name)
	}
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, killed := r.(killedSignal); !killed {
					panic(r) // surfaces from next, in Run
				}
			}
		}()
		body(p)
	})
	e.procs = append(e.procs, p)
	p.parked = true // until its start event fires
	e.push(0, event{proc: p})
	return p
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// resume switches into p's body and returns when it parks or finishes.
func (p *Proc) resume() {
	if !p.parked {
		panic("sim: wake-up of process that is not parked: " + p.name)
	}
	p.parked = false
	p.next()
}

// park switches back to the engine until a wake-up event resumes p.
func (p *Proc) park() {
	p.parked = true
	if !p.yield(struct{}{}) {
		panic(killedSignal{})
	}
}

// Sleep advances the process by d seconds of simulated time.
func (p *Proc) Sleep(d float64) {
	e := p.eng
	if !(d > 0) {
		d = 0
	}
	// When nothing else is due before p wakes (a tie goes to the earlier
	// event, which is never this one), parking would only have the engine
	// pop p's own wake-up and switch straight back. Advancing the clock in
	// place is the same schedule without the two switches.
	if wake := e.now + d; len(e.events) == 0 || wake < e.events[0].time {
		e.now = wake
		return
	}
	e.push(d, event{proc: p})
	p.park()
}
