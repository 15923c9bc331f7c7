package sim

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(2.0, func() { got = append(got, 3) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(1.0, func() { got = append(got, 2) }) // same time: scheduling order
	e.Schedule(3.0, func() { got = append(got, 4) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want %v", got, want)
	}
	if e.Now() != 3.0 {
		t.Fatalf("Now() = %v, want 3.0", e.Now())
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var at []float64
	calls, pc := 0, 0
	e.Spawn("sleeper", func(p *Proc) bool {
		calls++
		switch pc {
		case 0:
			pc = 1
			if !p.Sleep(1.5) {
				return false
			}
			fallthrough
		case 1:
			at = append(at, p.Now())
			pc = 2
			if !p.Sleep(2.5) {
				return false
			}
			fallthrough
		default:
			at = append(at, p.Now())
			return true
		}
	})
	// An event due at 3 lets the first sleep pass in place (nothing is due
	// before 1.5) but not the second (3 is due before 4).
	e.Schedule(3, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(at, []float64{1.5, 4.0}) {
		t.Fatalf("wake times = %v, want [1.5 4]", at)
	}
	if calls != 2 {
		t.Fatalf("step called %d times, want 2 (start, then one wake-up)", calls)
	}
}

// sleeps returns a step that sleeps d then calls then, n times over.
func sleeps(n int, d float64, then func(p *Proc)) func(p *Proc) bool {
	i, slept := 0, false
	return func(p *Proc) bool {
		for ; i < n; i++ {
			if !slept {
				slept = true
				if !p.Sleep(d) {
					return false
				}
			}
			slept = false
			then(p)
		}
		return true
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b"} {
			e.Spawn(name, sleeps(3, 1, func(*Proc) { log = append(log, name) }))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	if want := []string{"a", "b", "a", "b", "a", "b"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("interleaving = %v, want %v", first, want)
	}
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d produced %v, first run produced %v", i, got, first)
		}
	}
}

func TestStoreBackpressure(t *testing.T) {
	e := NewEngine()
	s := NewStore[int](e, 2)
	var putTimes, getTimes []float64
	put := 0
	e.Spawn("producer", func(p *Proc) bool {
		for ; put < 5; put++ {
			if !s.Put(p, put) {
				return false
			}
			putTimes = append(putTimes, p.Now())
		}
		return true
	})
	got, holding := 0, false
	e.Spawn("consumer", func(p *Proc) bool {
		for ; got < 5; got++ {
			if !holding {
				item, ok := s.Get(p)
				if !ok {
					return false
				}
				if item != got {
					t.Errorf("got item %v, want %d", item, got)
				}
				getTimes = append(getTimes, p.Now())
				holding = true
				if !p.Sleep(10) {
					return false
				}
			}
			holding = false
		}
		return true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Producer can buffer 2 items instantly; further puts are gated by the
	// consumer's 10-second cadence.
	if putTimes[0] != 0 || putTimes[1] != 0 {
		t.Fatalf("first two puts at %v, want time 0", putTimes[:2])
	}
	if putTimes[4] <= putTimes[1] {
		t.Fatalf("backpressure missing: put times %v", putTimes)
	}
	if s.Len() != 0 {
		t.Fatalf("store not drained: %d items left", s.Len())
	}
}

func TestStoreFIFOProperty(t *testing.T) {
	// Property: for any pattern of item counts and consumer delays, items
	// come out in exactly the order they went in.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(50)
		capacity := 1 + rng.IntN(5)
		e := NewEngine()
		s := NewStore[int](e, capacity)
		put, putSlept := 0, false
		e.Spawn("producer", func(p *Proc) bool {
			for ; put < n; put++ {
				if !putSlept {
					putSlept = true
					if !p.Sleep(rng.Float64()) {
						return false
					}
				}
				if !s.Put(p, put) {
					return false
				}
				putSlept = false
			}
			return true
		})
		ok := true
		got, getSlept := 0, false
		e.Spawn("consumer", func(p *Proc) bool {
			for ; got < n; got++ {
				if !getSlept {
					getSlept = true
					if !p.Sleep(rng.Float64()) {
						return false
					}
				}
				item, in := s.Get(p)
				if !in {
					return false
				}
				if item != got {
					ok = false
				}
				getSlept = false
			}
			return true
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeMonotonicProperty(t *testing.T) {
	// Property: observed wake times never decrease regardless of the delays
	// used, including zero and negative ones. A second process wakes at
	// every integer time, so sleeps both pass in place and wait their turn.
	f := func(delays []float64) bool {
		e := NewEngine()
		last := -1.0
		mono := true
		i, slept := 0, false
		e.Spawn("p", func(p *Proc) bool {
			for ; i < len(delays); i++ {
				if !slept {
					slept = true
					if !p.Sleep(delays[i]) { // Sleep clamps negatives/NaN to 0
						return false
					}
				}
				slept = false
				if p.Now() < last {
					mono = false
				}
				last = p.Now()
			}
			return true
		})
		e.Spawn("ticker", sleeps(len(delays), 1, func(*Proc) {}))
		if err := e.Run(); err != nil {
			return false
		}
		return mono
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	s := NewStore[int](e, 1)
	e.Spawn("starved", func(p *Proc) bool {
		if _, ok := s.Get(p); !ok { // nobody ever puts
			return false
		}
		t.Error("starved process got an item")
		return true
	})
	e.Spawn("fine", sleeps(1, 2, func(*Proc) {}))
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "starved" {
		t.Fatalf("Parked = %v", de.Parked)
	}
}

func TestWaiterWakeAll(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	woken := 0
	for i := 0; i < 4; i++ {
		waited := false
		e.Spawn("waiter", func(p *Proc) bool {
			if !waited {
				waited = true
				return w.Wait(p)
			}
			woken++
			return true
		})
	}
	e.Spawn("waker", sleeps(1, 5, func(*Proc) {
		if w.Waiting() != 4 {
			t.Errorf("Waiting() = %d before WakeAll, want 4", w.Waiting())
		}
		w.WakeAll()
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
	if w.Waiting() != 0 {
		t.Fatalf("Waiting() = %d, want 0", w.Waiting())
	}
}

func TestEngineRunTwiceFails(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run() succeeded, want error")
	}
}

func TestSpawnWhileRunning(t *testing.T) {
	e := NewEngine()
	childRan := false
	spawned := false
	e.Spawn("parent", func(p *Proc) bool {
		if !spawned {
			spawned = true
			if !p.Sleep(1) {
				return false
			}
		}
		if !childRan {
			e.Spawn("child", sleeps(1, 1, func(*Proc) { childRan = true }))
			return p.Sleep(5)
		}
		return true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child process never ran")
	}
}

// mustPanic runs f and returns the value it panicked with, failing the test
// if it returned normally.
func mustPanic(t *testing.T, f func()) (v any) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatal("no panic")
		}
	}()
	f()
	return nil
}

func TestSpawnAndScheduleAfterRunPanic(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Spawn":    func() { e.Spawn("late", func(*Proc) bool { return true }) },
		"Schedule": func() { e.Schedule(1, func() {}) },
	} {
		msg, ok := mustPanic(t, f).(string)
		if !ok || !strings.HasPrefix(msg, "sim:") {
			t.Errorf("%s after Run panicked with %v, want a sim: message", name, msg)
		}
	}
}

func TestProcessPanicPropagatesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	s := NewStore[int](e, 1)
	calls := 0
	counted := func(step func(p *Proc) bool) func(p *Proc) bool {
		return func(p *Proc) bool { calls++; return step(p) }
	}
	e.Spawn("blocked", counted(func(p *Proc) bool {
		_, ok := s.Get(p)
		return ok
	}))
	e.Spawn("sleeper", counted(sleeps(1, 10, func(*Proc) {})))
	e.Spawn("asleep-at-panic", counted(sleeps(1, 1, func(*Proc) {})))
	boom := &struct{ msg string }{"boom"}
	e.Schedule(0.5, func() {
		e.Spawn("bad", func(p *Proc) bool { panic(boom) })
	})
	// The step's panic must reach Run's caller — this goroutine, where a
	// recover can see it — as the very value it was raised with, and no
	// step runs after it.
	if got := mustPanic(t, func() { _ = e.Run() }); got != boom {
		t.Fatalf("Run panicked with %v, want the process's own value", got)
	}
	if calls != 3 {
		t.Fatalf("%d step calls, want 3: the starts, and none after the panic", calls)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after a propagated panic, %d before", n, base)
	}
	if err := e.Run(); err == nil {
		t.Fatal("Run() on an engine that panicked succeeded, want error")
	}
}

func TestWakeOfFinishedProcessPanics(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	e.Spawn("quitter", func(p *Proc) bool {
		w.Wait(p)
		return true // finishes while still registered: a broken step
	})
	e.Schedule(1, func() { w.Wake() })
	msg, ok := mustPanic(t, func() { _ = e.Run() }).(string)
	if !ok || !strings.Contains(msg, "finished process: quitter") {
		t.Fatalf("Run panicked with %v, want a wake-up of a finished process", msg)
	}
}
