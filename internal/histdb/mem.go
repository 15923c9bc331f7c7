package histdb

import (
	"maps"
	"slices"
	"sync"
)

// MemStore is the in-memory Store. It keeps records in first-save order —
// log order for a replayed FileStore — so every query is one walk, no sort.
type MemStore struct {
	mu     sync.Mutex
	recs   []entry
	byID   map[string]int // ID → index into recs
	bySpec map[string]int // spec key → index of a done run
}

// entry is a stored record and its spec-family key, computed once at put.
// A stored record is never written once someone may hold it: reads hand
// out rec itself, and fold changes a copy.
type entry struct {
	rec    *RunRecord
	family string
	shared bool // a saver or reader may hold rec, or its Checkpoint or Trace
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		byID:   make(map[string]int),
		bySpec: make(map[string]int),
	}
}

// Save implements Store.
func (s *MemStore) Save(rec *RunRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(rec.Clone())
	return nil
}

// put indexes a record: in place when its ID is known, at the end the first
// time it is seen. Callers hold s.mu.
func (s *MemStore) put(rec *RunRecord) {
	i, ok := s.byID[rec.ID]
	if !ok {
		i = len(s.recs)
		s.byID[rec.ID] = i
		s.recs = append(s.recs, entry{})
	}
	family := s.recs[i].family
	if !ok || s.recs[i].rec.Spec != rec.Spec {
		family = rec.Spec.FamilyKey()
	}
	s.recs[i] = entry{rec: rec, family: family, shared: true}
	if rec.State == StateDone && rec.SpecKey != "" {
		s.bySpec[rec.SpecKey] = i
	}
}

// SaveProgress implements Store.
func (s *MemStore) SaveProgress(p *Progress) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold(p)
	return nil
}

// fold applies a progress frame to its run's record (see Progress), first
// copying the record, its checkpoint and its trace if anyone else may hold
// them. A frame for an unknown or finished run changes nothing. Callers
// hold s.mu.
func (s *MemStore) fold(p *Progress) {
	i, ok := s.byID[p.ID]
	if !ok || s.recs[i].rec.State.Terminal() {
		return
	}
	e, r := &s.recs[i], s.recs[i].rec
	if e.shared || r.Checkpoint == nil {
		cp := make(map[string]float64, len(r.Checkpoint)+len(p.Checkpoint))
		maps.Copy(cp, r.Checkpoint)
		r = r.Clone()
		r.Checkpoint, r.Trace = cp, slices.Clip(r.Trace)
		e.rec, e.shared = r, false
	}
	maps.Copy(r.Checkpoint, p.Checkpoint)
	r.Trace = append(r.Trace, p.Trace...)
	if p.State == "" {
		return
	}
	r.State, r.Error, r.Result, r.Continuous = p.State, p.Error, p.Result, p.Continuous
	if p.FinishedAt != nil {
		r.FinishedAt = *p.FinishedAt
	}
	if p.Collector != nil {
		r.Collector = *p.Collector
	}
	if r.State == StateDone {
		r.Checkpoint = nil
		if r.SpecKey != "" {
			s.bySpec[r.SpecKey] = i
		}
	}
}

// out hands record i to a caller, who may now hold it. Callers hold s.mu.
func (s *MemStore) out(i int) *RunRecord {
	s.recs[i].shared = true
	return s.recs[i].rec
}

// Get implements Store.
func (s *MemStore) Get(id string) (*RunRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.out(i), true
}

// List implements Store: records in the order their IDs were first saved
// (log order for a replayed FileStore), so every query and
// transfer-learning path built on List is reproducible.
func (s *MemStore) List() []*RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*RunRecord, len(s.recs))
	for i := range s.recs {
		out[i] = s.out(i)
	}
	return out
}

// where returns the completed runs match accepts, in List order.
func (s *MemStore) where(match func(*entry) bool) []*RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := func(e *entry) bool { return e.rec.State == StateDone && match(e) }
	n := 0
	for i := range s.recs {
		if keep(&s.recs[i]) {
			n++
		}
	}
	out := make([]*RunRecord, 0, n)
	for i := range s.recs {
		if keep(&s.recs[i]) {
			out = append(out, s.out(i))
		}
	}
	return out
}

// BySpec implements Store.
func (s *MemStore) BySpec(key string) (*RunRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.bySpec[key]
	if !ok {
		return nil, false
	}
	return s.out(i), true
}

// ByComponent implements Store.
func (s *MemStore) ByComponent(name string) []*RunRecord {
	return s.where(func(e *entry) bool {
		return name == "" || contains(e.rec.Components, name)
	})
}

// BySpecFamily implements Store.
func (s *MemStore) BySpecFamily(family string) []*RunRecord {
	return s.where(func(e *entry) bool {
		return family == "" || e.family == family
	})
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }
