package sim

// Waiter is a condition-variable-like primitive: processes wait on it and
// are woken, in FIFO order, by Wake or WakeAll. Wakes take effect at the
// current simulated time. A Waiter may be embedded by value (initialise it
// with *NewWaiter) but must not be copied once a process waits on it.
type Waiter struct {
	eng *Engine
	// q[head:] are the waiting processes; the consumed prefix is reclaimed
	// whenever the queue empties, so a long-lived Waiter stops allocating.
	q    []*Proc
	head int
}

// NewWaiter returns a Waiter bound to the engine.
func NewWaiter(e *Engine) *Waiter { return &Waiter{eng: e} }

// Wait registers p to be woken and returns false: a wait never finishes in
// place, so p's step returns, and the engine calls it again once woken.
func (w *Waiter) Wait(p *Proc) bool {
	w.q = append(w.q, p)
	return false
}

// Wake wakes the oldest waiting process, if any, and reports whether a
// process was woken.
func (w *Waiter) Wake() bool {
	if w.head == len(w.q) {
		return false
	}
	p := w.q[w.head]
	w.q[w.head] = nil
	w.head++
	if w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	w.eng.Schedule(0, p.resume)
	return true
}

// WakeAll wakes every waiting process in FIFO order.
func (w *Waiter) WakeAll() {
	for w.Wake() {
	}
}

// Waiting returns the number of processes currently waiting on the waiter.
func (w *Waiter) Waiting() int { return len(w.q) - w.head }

// Store is a bounded FIFO buffer of items exchanged between processes. Put
// blocks while the store is full; Get blocks while it is empty. It models a
// staging buffer with backpressure.
type Store[T any] struct {
	ring    []T // len(ring) is the capacity
	head, n int // the n buffered items start at ring[head]
	getters Waiter
	putters Waiter
}

// NewStore returns a store holding at most capacity items (capacity >= 1).
func NewStore[T any](e *Engine, capacity int) *Store[T] {
	if capacity < 1 {
		panic("sim: store capacity must be >= 1")
	}
	return &Store[T]{ring: make([]T, capacity), getters: Waiter{eng: e}, putters: Waiter{eng: e}}
}

// Put appends item and reports whether it did so in place. While the store
// is full it registers p and returns false; p's step calls Put again, with
// the same item, once woken.
func (s *Store[T]) Put(p *Proc, item T) bool {
	if s.n == len(s.ring) {
		return s.putters.Wait(p)
	}
	s.ring[(s.head+s.n)%len(s.ring)] = item
	s.n++
	s.getters.Wake()
	return true
}

// Get removes the oldest item and returns it with true. While the store is
// empty it registers p and returns false; p's step calls Get again once
// woken.
func (s *Store[T]) Get(p *Proc) (T, bool) {
	var zero T
	if s.n == 0 {
		return zero, s.getters.Wait(p)
	}
	item := s.ring[s.head]
	s.ring[s.head] = zero
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	s.putters.Wake()
	return item, true
}

// Len returns the number of buffered items.
func (s *Store[T]) Len() int { return s.n }
