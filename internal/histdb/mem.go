package histdb

import (
	"sort"
	"sync"
)

// MemStore is the in-memory Store.
type MemStore struct {
	mu     sync.Mutex
	byID   map[string]*RunRecord
	seq    map[string]int    // ID → creation sequence (first-save order)
	bySpec map[string]string // spec key → ID of a done run
	nextSq int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		byID:   make(map[string]*RunRecord),
		seq:    make(map[string]int),
		bySpec: make(map[string]string),
	}
}

// Save implements Store.
func (s *MemStore) Save(rec *RunRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(rec.Clone())
	return nil
}

// put indexes a record, assigning a creation sequence number the first time
// an ID is seen. Callers hold s.mu.
func (s *MemStore) put(rec *RunRecord) {
	if _, ok := s.seq[rec.ID]; !ok {
		s.seq[rec.ID] = s.nextSq
		s.nextSq++
	}
	s.byID[rec.ID] = rec
	if rec.State == StateDone && rec.SpecKey != "" {
		s.bySpec[rec.SpecKey] = rec.ID
	}
}

// Get implements Store.
func (s *MemStore) Get(id string) (*RunRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return rec.Clone(), true
}

// List implements Store: records in creation-sequence order (the order IDs
// were first saved — log order for a replayed FileStore), ties broken by
// ID. The order is deterministic regardless of map iteration, so every
// query and transfer-learning path built on List is reproducible.
func (s *MemStore) List() []*RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*RunRecord, 0, len(s.byID))
	for _, rec := range s.byID {
		out = append(out, rec.Clone())
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := s.seq[out[a].ID], s.seq[out[b].ID]
		if sa != sb {
			return sa < sb
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// BySpec implements Store.
func (s *MemStore) BySpec(key string) (*RunRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.bySpec[key]
	if !ok {
		return nil, false
	}
	rec, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return rec.Clone(), true
}

// ByComponent implements Store.
func (s *MemStore) ByComponent(name string) []*RunRecord {
	return selectRecords(s.List(), Query{Component: name})
}

// BySpecFamily implements Store.
func (s *MemStore) BySpecFamily(family string) []*RunRecord {
	return selectRecords(s.List(), Query{Family: family})
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }
