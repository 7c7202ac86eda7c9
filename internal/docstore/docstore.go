// Package docstore is the MongoDB substrate: the paper's topologies end in
// "Mongo bolts" that persist results into collections for verification.
// This in-memory document store supports inserts, per-key counter
// increments (the Word Count sink), and simple equality queries.
package docstore

import "sync"

// Document is a single record.
type Document map[string]any

// Store holds named collections of documents.
type Store struct {
	mu          sync.Mutex
	collections map[string][]Document
	counters    map[string]map[string]int64 // collection → key → count
	inserts     int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		collections: make(map[string][]Document),
		counters:    make(map[string]map[string]int64),
	}
}

// Insert appends a copy of doc to the named collection.
func (s *Store) Insert(coll string, doc Document) {
	cp := make(Document, len(doc))
	for k, v := range doc {
		cp[k] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collections[coll] = append(s.collections[coll], cp)
	s.inserts++
}

// IncCounter adds delta to the named counter key within a collection
// (upsert semantics, like a Mongo $inc) and returns the new value.
func (s *Store) IncCounter(coll, key string, delta int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters[coll]
	if c == nil {
		c = make(map[string]int64)
		s.counters[coll] = c
	}
	c[key] += delta
	s.inserts++
	return c[key]
}

// Counters returns a copy of all counters in a collection.
func (s *Store) Counters(coll string) map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters[coll]))
	for k, v := range s.counters[coll] {
		out[k] = v
	}
	return out
}

// Count returns the number of inserted documents in a collection
// (counters are not included).
func (s *Store) Count(coll string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.collections[coll])
}

// Find returns copies of the documents in coll whose field equals value.
func (s *Store) Find(coll, field string, value any) []Document {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Document
	for _, d := range s.collections[coll] {
		if d[field] == value {
			cp := make(Document, len(d))
			for k, v := range d {
				cp[k] = v
			}
			out = append(out, cp)
		}
	}
	return out
}

// TotalWrites returns the number of write operations (inserts + counter
// increments) ever performed — the sink-side verification signal.
func (s *Store) TotalWrites() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inserts
}
