package histdb

import "sync"

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
	s.recs[i] = entry{rec: rec, family: rec.Spec.FamilyKey()}
	if rec.State == StateDone && rec.SpecKey != "" {
		s.bySpec[rec.SpecKey] = i
	}
}

// Get implements Store.
func (s *MemStore) Get(id string) (*RunRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.recs[i].rec.Clone(), true
}

// List implements Store: records in the order their IDs were first saved
// (log order for a replayed FileStore), so every query and
// transfer-learning path built on List is reproducible.
func (s *MemStore) List() []*RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*RunRecord, len(s.recs))
	for i, e := range s.recs {
		out[i] = e.rec.Clone()
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
			out = append(out, e.rec.Clone())
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
	return s.recs[i].rec.Clone(), true
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
