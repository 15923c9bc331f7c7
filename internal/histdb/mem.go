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
type entry struct {
	rec    *RunRecord
	family string
	shared bool // a saver or reader may hold rec's Checkpoint or Trace
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
	s.recs[i] = entry{rec: rec, family: rec.Spec.FamilyKey(), shared: true}
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
// copying the checkpoint and trace if anyone else may hold them. A frame
// for an unknown or finished run changes nothing. Callers hold s.mu.
func (s *MemStore) fold(p *Progress) {
	i, ok := s.byID[p.ID]
	if !ok || s.recs[i].rec.State.Terminal() {
		return
	}
	e, r := &s.recs[i], s.recs[i].rec
	if e.shared || r.Checkpoint == nil {
		cp := make(map[string]float64, len(r.Checkpoint)+len(p.Checkpoint))
		maps.Copy(cp, r.Checkpoint)
		r.Checkpoint, r.Trace, e.shared = cp, slices.Clip(r.Trace), false
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

// out returns a copy of record i for a caller. Callers hold s.mu.
func (s *MemStore) out(i int) *RunRecord {
	s.recs[i].shared = true
	return s.recs[i].rec.Clone()
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

// where returns copies of the completed runs match accepts, in List order.
func (s *MemStore) where(match func(*entry) bool) []*RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*RunRecord
	for i := range s.recs {
		if e := &s.recs[i]; e.rec.State == StateDone && match(e) {
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
