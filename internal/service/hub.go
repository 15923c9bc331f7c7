package service

import (
	"context"
	"encoding/json"
	"sync"

	"ceal/internal/tuner/events"
)

// hub is the per-run event fan-out: it implements events.Observer, retains
// every event as its marshaled JSONL line (exactly events.MarshalJSON — the
// same bytes ceal-tune's -trace writes), and lets any number of subscribers
// stream the trace. Late subscribers replay the buffered prefix first, so a
// client that connects mid-run (or after it finished) still sees the full
// trace in order.
//
// The retained buffer is also the run's persisted trace: when the run
// finishes, the manager snapshots Lines() into the RunRecord.
type hub struct {
	mu      sync.Mutex
	lines   []json.RawMessage
	closed  bool
	changed chan struct{} // closed and replaced on every append / Close
	// dropped reports each event that failed to marshal (nil: nobody asked).
	dropped func(error)
}

func newHub() *hub {
	return &hub{changed: make(chan struct{})}
}

// OnEvent implements events.Observer. A marshal failure — a NaN or ±Inf in
// some float field, e.g. a hostile measurement — drops the line, since the
// run must never fail because of its trace sink, and is reported through
// dropped.
func (h *hub) OnEvent(e events.Event) {
	line, err := events.MarshalJSON(e)
	if err != nil {
		if h.dropped != nil {
			h.dropped(err)
		}
		return
	}
	h.mu.Lock()
	if !h.closed {
		h.lines = append(h.lines, json.RawMessage(line))
		h.wake()
	}
	h.mu.Unlock()
}

// Close marks the stream complete: subscribers drain the buffer and return.
func (h *hub) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.wake()
	}
	h.mu.Unlock()
}

// wake signals waiting subscribers. Callers hold h.mu.
func (h *hub) wake() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// Lines returns a snapshot of the buffered trace.
func (h *hub) Lines() []json.RawMessage {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]json.RawMessage(nil), h.lines...)
}

// next returns the lines buffered past cursor, whether the stream is
// complete, and a channel that is closed on the next append or Close.
func (h *hub) next(cursor int) ([]json.RawMessage, bool, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var fresh []json.RawMessage
	if cursor < len(h.lines) {
		fresh = append(fresh, h.lines[cursor:]...)
	}
	return fresh, h.closed, h.changed
}

// Stream delivers every trace line to emit in order — buffered prefix
// first, then live events as they arrive — until the run's trace is
// complete, the context is cancelled, or emit fails. follow=false stops
// after the replay instead of waiting for new events.
func (h *hub) Stream(ctx context.Context, follow bool, emit func(json.RawMessage) error) error {
	cursor := 0
	for {
		fresh, closed, changed := h.next(cursor)
		for _, line := range fresh {
			if err := emit(line); err != nil {
				return err
			}
		}
		cursor += len(fresh)
		if closed || !follow {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// staticHub wraps an already-persisted trace in the hub streaming
// interface, so finished runs loaded from the store serve the same
// endpoint as live ones.
func staticHub(lines []json.RawMessage) *hub {
	h := newHub()
	h.lines = lines
	h.closed = true
	return h
}
