package dispatch

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"ceal/internal/cluster"
)

// Journal is a run's checkpoint: its measured values by key, held beneath
// whatever memoizes above (the collector, a drift clock), so a resumed run
// re-derives every decision and measures only what the journal lacks.
type Journal struct {
	mu   sync.Mutex
	vals map[string]float64
	// added lists the keys journaled since NewJournal, in order.
	added []string
}

// NewJournal returns a journal holding a copy of checkpoint.
func NewJournal(checkpoint map[string]float64) *Journal {
	vals := make(map[string]float64, len(checkpoint))
	maps.Copy(vals, checkpoint)
	return &Journal{vals: vals}
}

// Values returns a copy of everything journaled so far.
func (jr *Journal) Values() map[string]float64 {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return maps.Clone(jr.vals)
}

// Since returns what was journaled past mark (0 at first, never the entries
// the journal started from) and the mark to pass next; nil if nothing.
func (jr *Journal) Since(mark int) (map[string]float64, int) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if mark >= len(jr.added) {
		return nil, mark
	}
	out := make(map[string]float64, len(jr.added)-mark)
	for _, k := range jr.added[mark:] {
		out[k] = jr.vals[k]
	}
	return out, len(jr.added)
}

// Wrap returns d journaled under load (nil or zero: nominal): held items are
// served with their own Seq, the rest go to d and are recorded once its
// batch succeeds. Keys are Item.Key, prefixed under a non-nominal load by
// its exact bits — within a run, no other part of a Job varies.
func (jr *Journal) Wrap(load *cluster.Load, d Dispatcher) Dispatcher {
	j := &journaled{jr: jr, d: d}
	if load != nil && !load.IsZero() {
		j.prefix = fmt.Sprintf("%x/", *load)
	}
	return j
}

type journaled struct {
	jr     *Journal
	prefix string
	d      Dispatcher
}

func (j *journaled) Dispatch(ctx context.Context, batch []Item) ([]Measurement, error) {
	var out []Measurement
	var rest []Item
	j.jr.mu.Lock()
	for _, it := range batch {
		if v, ok := j.jr.vals[j.prefix+it.Key()]; ok {
			out = append(out, Measurement{Seq: it.Seq, Value: v})
		} else {
			rest = append(rest, it)
		}
	}
	j.jr.mu.Unlock()
	if len(rest) == 0 {
		return out, nil
	}
	ms, err := j.d.Dispatch(ctx, rest)
	var vals []float64
	if err == nil {
		vals, _, err = ByIndex(rest, ms)
	}
	if err != nil {
		return nil, err
	}
	j.jr.mu.Lock()
	for i, it := range rest {
		key := j.prefix + it.Key()
		j.jr.vals[key] = vals[i]
		j.jr.added = append(j.jr.added, key)
	}
	j.jr.mu.Unlock()
	return append(out, ms...), nil
}

func (j *journaled) DispatchRetries() uint64 { return Retries(j.d) }

// Retries returns d's count of shard resends if it keeps one, else 0.
func Retries(d Dispatcher) uint64 {
	if rc, ok := d.(interface{ DispatchRetries() uint64 }); ok {
		return rc.DispatchRetries()
	}
	return 0
}
