// Package staging models the ADIOS-class coupling layer between in-situ
// workflow components: a bounded, chunked streaming channel with
// backpressure. A producer emits each step's payload as staging chunks
// into a bounded send queue; a staging daemon moves chunks over the shared
// fabric; the consumer drains a bounded receive queue. When the consumer
// falls behind, the queues fill and the producer blocks — the run-time
// synchronization that makes in-situ workflow performance hard to predict
// from solo runs (§2.3).
package staging

import (
	"math"

	"ceal/internal/fabric"
	"ceal/internal/sim"
)

// Plan describes how one step's payload is split into staging chunks.
type Plan struct {
	PerStep   int     // chunks per step (>= 1 for producing components)
	Bytes     float64 // size of every chunk but the last
	LastBytes float64 // size of the final (possibly short) chunk
}

// NewPlan splits a per-step payload into chunks of at most chunkBytes
// (chunkBytes <= 0 means the whole payload moves as one chunk).
func NewPlan(payloadBytes, chunkBytes float64) Plan {
	if payloadBytes <= 0 {
		return Plan{}
	}
	if chunkBytes <= 0 || chunkBytes >= payloadBytes {
		return Plan{PerStep: 1, Bytes: payloadBytes, LastBytes: payloadBytes}
	}
	n := int(math.Ceil(payloadBytes / chunkBytes))
	return Plan{
		PerStep:   n,
		Bytes:     chunkBytes,
		LastBytes: payloadBytes - float64(n-1)*chunkBytes,
	}
}

// Size returns the size of chunk i (0-based) within a step.
func (p Plan) Size(i int) float64 {
	if p.PerStep <= 1 || i == p.PerStep-1 {
		return p.LastBytes
	}
	return p.Bytes
}

// Channel is one coupling stream between a producer and a consumer.
type Channel struct {
	Plan    Plan
	RateCap float64 // per-flow bandwidth cap (endpoint injection limit)

	sendQ *sim.Store[float64]
	recvQ *sim.Store[float64]

	// The producer's and the consumer's place within the current step, so
	// a SendStep or RecvStep called again after a wake-up picks up there.
	sent, recvd        int
	emitted, ingesting bool
}

// DefaultSlots is the channel depth in chunks on each side (double
// buffering, matching typical staging-library defaults).
const DefaultSlots = 2

// NewChannel creates a channel with the given chunk plan and per-flow rate
// cap, using slots chunk buffers on each side (<= 0 selects DefaultSlots).
func NewChannel(e *sim.Engine, plan Plan, rateCap float64, slots int) *Channel {
	if slots <= 0 {
		slots = DefaultSlots
	}
	return &Channel{
		Plan:    plan,
		RateCap: rateCap,
		sendQ:   sim.NewStore[float64](e, slots),
		recvQ:   sim.NewStore[float64](e, slots),
	}
}

// daemon moves a channel's chunks from its send queue over the link into
// its receive queue.
type daemon struct {
	c       *Channel
	link    *fabric.Link
	latency float64
	left    int     // chunks still to move
	bytes   float64 // the chunk in hand
	holding bool    // taken from the send queue, not yet put in the receive queue
}

func (d *daemon) step(p *sim.Proc) bool {
	for ; d.left > 0; d.left-- {
		if !d.holding {
			bytes, ok := d.c.sendQ.Get(p)
			if !ok {
				return false
			}
			d.bytes, d.holding = bytes, true
			if !d.link.Transfer(p, bytes, d.c.RateCap, d.latency) {
				return false
			}
		}
		if !d.c.recvQ.Put(p, d.bytes) {
			return false
		}
		d.holding = false
	}
	return true
}

// StartDaemon spawns the staging daemon process that moves chunks from the
// send queue over the link into the receive queue, for steps steps.
func (c *Channel) StartDaemon(e *sim.Engine, name string, link *fabric.Link, steps int, latency float64) {
	d := &daemon{c: c, link: link, latency: latency, left: steps * c.Plan.PerStep}
	e.Spawn(name, d.step)
}

// SendStep emits one step's payload chunk by chunk, paying emitCost per
// chunk on the producer side, blocking under backpressure. It reports
// whether the step finished in place; on false p's step returns, and calls
// SendStep again once woken, which goes on where it stopped.
func (c *Channel) SendStep(p *sim.Proc, emitCost func(bytes float64) float64) bool {
	for ; c.sent < c.Plan.PerStep; c.sent++ {
		bytes := c.Plan.Size(c.sent)
		if !c.emitted {
			c.emitted = true
			if emitCost != nil && !p.Sleep(emitCost(bytes)) {
				return false
			}
		}
		if !c.sendQ.Put(p, bytes) {
			return false
		}
		c.emitted = false
	}
	c.sent = 0
	return true
}

// RecvStep drains one step's payload chunk by chunk, paying ingestCost per
// chunk on the consumer side, blocking until data arrives. It reports
// whether the step finished in place, as SendStep does.
func (c *Channel) RecvStep(p *sim.Proc, ingestCost func(bytes float64) float64) bool {
	for ; c.recvd < c.Plan.PerStep; c.recvd++ {
		if !c.ingesting {
			bytes, ok := c.recvQ.Get(p)
			if !ok {
				return false
			}
			c.ingesting = true
			if ingestCost != nil && !p.Sleep(ingestCost(bytes)) {
				return false
			}
		}
		c.ingesting = false
	}
	c.recvd = 0
	return true
}

// Buffered returns the number of chunks currently queued on both sides
// (not counting one possibly in flight on the fabric).
func (c *Channel) Buffered() int { return c.sendQ.Len() + c.recvQ.Len() }
