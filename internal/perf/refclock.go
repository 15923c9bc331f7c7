package perf

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference clock measures how fast the host runs while a workload is
// measured. The sandbox this benchmark was sized on moves, for minutes at a
// time, between states in which identical tuning jobs take up to 35% more
// wall AND more CPU seconds (a neighbour on the same physical core, most
// likely); ten runs of one commit then spread by 12-25% whatever is
// averaged inside a run. A small fixed kernel of the same kind of work as
// the program's hot paths (branchy walks over decision trees held in the
// cache) slows with the jobs, so a run reports its times and rates at
// reference speed: multiplied (divided) by refNominalMS over the run's
// median kernel time. ref.kernel_ms and ref.speed are in every report, so
// the readings as measured are one division away.
//
// The kernel shares no code with the program, allocates nothing while it
// runs and is timed on its thread's CPU clock, so neither a change to the
// program nor waiting for a core behind the workload's own threads moves
// it. It runs for 4-5 ms every refInterval on a thread of its own, a
// 2.5% load that is the same for every commit.

// refNominalMS is what the kernel takes on the sizing sandbox in its fast
// state. It only fixes the scale of the reported times.
const refNominalMS = 4.0

const refInterval = 200 * time.Millisecond

// refClockCPU is the CPU time reference clocks have used so far; window
// subtracts its growth from a round's CPU seconds.
var refClockCPU atomic.Int64

type refNode struct {
	feat, left, right int32
	thr               float64
}

type refClock struct {
	trees [][]refNode
	rows  []float64
	sink  float64

	mu      sync.Mutex
	samples []float64 // kernel thread-CPU time, ms

	stop   chan struct{}
	done   chan struct{}
	halted sync.Once
}

const (
	refFeats = 8
	refRows  = 1024
	refTrees = 64
	refDepth = 6
)

// startRefClock builds the kernel's fixed inputs, takes a first sample and
// keeps sampling until halt.
func startRefClock() *refClock {
	c := &refClock{stop: make(chan struct{}), done: make(chan struct{})}
	r := rand.New(rand.NewSource(1))
	c.rows = make([]float64, refRows*refFeats)
	for i := range c.rows {
		c.rows[i] = r.Float64()
	}
	for t := 0; t < refTrees; t++ {
		n := 1<<(refDepth+1) - 1
		tree := make([]refNode, n)
		for i := range tree {
			tree[i] = refNode{feat: int32(r.Intn(refFeats)), thr: r.Float64(), left: int32(2*i + 1), right: int32(2*i + 2)}
			if 2*i+1 >= n {
				tree[i].left = -1 // leaf
			}
		}
		c.trees = append(c.trees, tree)
	}
	go func() {
		defer close(c.done)
		// The thread CPU clock is only meaningful if the kernel starts and
		// ends on one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c.kernel() // warm the caches and the branch predictor
		tick := time.NewTicker(refInterval)
		defer tick.Stop()
		for {
			t0 := threadCPU()
			c.kernel()
			d := threadCPU() - t0
			refClockCPU.Add(int64(d))
			c.mu.Lock()
			c.samples = append(c.samples, ms(d))
			c.mu.Unlock()
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

// kernel is the fixed work: every row walked down every tree.
func (c *refClock) kernel() {
	s := 0.0
	for i := 0; i < refRows; i++ {
		x := c.rows[i*refFeats : (i+1)*refFeats]
		for _, tree := range c.trees {
			k := int32(0)
			for tree[k].left >= 0 {
				if x[tree[k].feat] < tree[k].thr {
					k = tree[k].left
				} else {
					k = tree[k].right
				}
			}
			s += tree[k].thr
		}
	}
	c.sink = s
}

// halt stops the clock, the first time it is called, and returns the
// median kernel time of the run.
func (c *refClock) halt() float64 {
	c.halted.Do(func() { close(c.stop) })
	<-c.done
	return median(c.samples)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// atReferenceSpeed rescales a metric of the given unit measured on a host
// running at speed (refNominalMS over the kernel's time): times shrink on a
// slow host, rates grow, everything else is left as it is.
func atReferenceSpeed(v float64, unit string, speed float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * speed
	case "1/s", "krec/s", "MB/s":
		return v / speed
	}
	return v
}
