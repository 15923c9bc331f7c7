package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"ceal/internal/tuner/events"
)

func emitN(h *hub, from, to int) {
	for i := from; i < to; i++ {
		h.OnEvent(&events.IterationDone{Iteration: i, Measured: i})
	}
}

func collect(t *testing.T, h *hub, ctx context.Context, follow bool) []string {
	t.Helper()
	var got []string
	err := h.Stream(ctx, follow, func(line json.RawMessage) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	return got
}

func TestHubReplayThenLive(t *testing.T) {
	h := newHub()
	emitN(h, 0, 3)

	var wg sync.WaitGroup
	var live []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		live = collect(t, h, context.Background(), true)
	}()

	// Give the subscriber a moment to drain the replay, then extend the
	// stream and close it.
	time.Sleep(10 * time.Millisecond)
	emitN(h, 3, 5)
	h.Close()
	wg.Wait()

	if len(live) != 5 {
		t.Fatalf("live subscriber saw %d lines, want 5", len(live))
	}
	for i, line := range live {
		want := fmt.Sprintf(`{"event":"iteration_done","iteration":%d,"measured":%d,"best_value":0,"best_config":null}`, i, i)
		if line != want {
			t.Fatalf("line %d = %s, want %s", i, line, want)
		}
	}

	// A subscriber arriving after Close replays the full buffer.
	late := collect(t, h, context.Background(), true)
	if len(late) != 5 {
		t.Fatalf("late subscriber saw %d lines, want 5", len(late))
	}
}

func TestHubNoFollowStopsAfterReplay(t *testing.T) {
	h := newHub()
	emitN(h, 0, 2)
	got := collect(t, h, context.Background(), false) // stream still open
	if len(got) != 2 {
		t.Fatalf("got %d lines, want 2", len(got))
	}
}

func TestHubStreamCancelled(t *testing.T) {
	h := newHub()
	emitN(h, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- h.Stream(ctx, true, func(json.RawMessage) error { return nil })
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Stream returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stream did not return after cancel")
	}
}

func TestStaticHubReplaysPersistedTrace(t *testing.T) {
	lines := []json.RawMessage{json.RawMessage(`{"event":"run_started"}`), json.RawMessage(`{"event":"run_finished"}`)}
	h := staticHub(lines)
	got := collect(t, h, context.Background(), true)
	if len(got) != 2 || got[0] != `{"event":"run_started"}` || got[1] != `{"event":"run_finished"}` {
		t.Fatalf("static replay = %v", got)
	}
}

func TestHubDropsEventsAfterClose(t *testing.T) {
	h := newHub()
	emitN(h, 0, 1)
	h.Close()
	emitN(h, 1, 2)
	if lines, _, _ := h.next(0); len(lines) != 1 {
		t.Fatalf("%d lines after close, want 1", len(lines))
	}
}
