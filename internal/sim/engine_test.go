package sim

import (
	"errors"
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
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1.5)
		at = append(at, p.Now())
		p.Sleep(2.5)
		at = append(at, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(at, []float64{1.5, 4.0}) {
		t.Fatalf("wake times = %v, want [1.5 4]", at)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					log = append(log, name)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
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
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			s.Put(p, i)
			putTimes = append(putTimes, p.Now())
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			item := s.Get(p)
			if item != i {
				t.Errorf("got item %v, want %d", item, i)
			}
			getTimes = append(getTimes, p.Now())
			p.Sleep(10)
		}
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
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(rng.Float64())
				s.Put(p, i)
			}
		})
		ok := true
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(rng.Float64())
				if got := s.Get(p); got != i {
					ok = false
				}
			}
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
	// used, including zero and negative ones.
	f := func(delays []float64) bool {
		e := NewEngine()
		last := -1.0
		mono := true
		e.Spawn("p", func(p *Proc) {
			for _, d := range delays {
				p.Sleep(d) // Sleep clamps negatives/NaN to 0
				if p.Now() < last {
					mono = false
				}
				last = p.Now()
			}
		})
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
	e.Spawn("starved", func(p *Proc) {
		s.Get(p) // nobody ever puts
		t.Error("starved process ran past Get")
	})
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
		e.Spawn("waiter", func(p *Proc) {
			w.Wait(p)
			woken++
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5)
		w.WakeAll()
	})
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
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childRan = true
		})
		p.Sleep(5)
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
		"Spawn":    func() { e.Spawn("late", func(*Proc) {}) },
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
	unwound := 0
	e.Spawn("blocked", func(p *Proc) {
		defer func() { unwound++ }()
		s.Get(p)
	})
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(10)
	})
	e.Spawn("unstarted-at-panic", func(p *Proc) { p.Sleep(1) })
	boom := &struct{ msg string }{"boom"}
	e.Schedule(0.5, func() {
		e.Spawn("bad", func(p *Proc) { panic(boom) })
	})
	// The body's panic must reach Run's caller — this goroutine, where a
	// recover can see it — as the very value it was raised with.
	if got := mustPanic(t, func() { _ = e.Run() }); got != boom {
		t.Fatalf("Run panicked with %v, want the process's own value", got)
	}
	if unwound != 2 {
		t.Fatalf("%d of 2 parked processes unwound", unwound)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after a propagated panic, %d before", n, base)
	}
	if err := e.Run(); err == nil {
		t.Fatal("Run() on an engine that panicked succeeded, want error")
	}
}

func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	w := NewWaiter(e)
	for i := 0; i < 8; i++ {
		e.Spawn("stuck", func(p *Proc) {
			p.Sleep(1)
			w.Wait(p)
		})
	}
	e.Spawn("fine", func(p *Proc) { p.Sleep(2) })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || len(de.Parked) != 8 {
		t.Fatalf("Run() = %v, want 8 deadlocked processes", err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after a deadlock, %d before", n, base)
	}
}
