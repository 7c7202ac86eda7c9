// Package tsdb retains short metric histories in memory so health rules
// and dashboards can ask about trends ("is throughput falling?", "is a
// heartbeat age climbing?") without an external scraper. Each Series is a
// fixed-capacity ring of (timestamp, value) samples written by exactly
// one goroutine — the Sampler — with per-slot atomic stores, so readers
// (HTTP handlers, health probes) never block the writer and the write
// path allocates nothing in steady state.
package tsdb

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tells queries how to interpret a series.
type Kind uint8

const (
	// Counter samples are monotone cumulative totals; Rate and Delta are
	// the meaningful queries.
	Counter Kind = iota
	// Gauge samples are instantaneous readings; Latest and QuantileOver
	// are the meaningful queries.
	Gauge
)

// String names the kind for exposition.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Point is one retained sample.
type Point struct {
	// TS is the sample instant in Unix nanoseconds.
	TS int64 `json:"t"`
	// V is the sampled value.
	V float64 `json:"v"`
}

// Series is a fixed-capacity ring of samples. Writes (Append) must come
// from a single goroutine; reads may come from any number of goroutines
// concurrently. head counts samples ever written — slot head%len(ts) is
// the next write target — and is published after the slot contents, so a
// reader that re-checks head after copying knows whether any slot it
// read could have been overwritten mid-copy.
//
// The ring has one physical slot more than its capacity. The writer fills
// slot head%len(ts) BEFORE it publishes head+1, so while head reads h the
// slot of sample h may already hold half of the next sample; the spare
// slot keeps that in-flight write off the capacity samples a reader may be
// copying, which a ring of exactly capacity slots cannot (the slot in
// flight would be the oldest retained sample's, and head, still h, could
// not show it).
type Series struct {
	kind Kind
	ts   []int64
	vals []uint64 // math.Float64bits
	head atomic.Uint64
}

func newSeries(kind Kind, capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{
		kind: kind,
		ts:   make([]int64, capacity+1),
		vals: make([]uint64, capacity+1),
	}
}

// Kind returns the series kind.
func (s *Series) Kind() Kind { return s.kind }

// Cap returns the ring capacity in samples.
func (s *Series) Cap() int { return len(s.ts) - 1 }

// Append records one sample. Single writer only: the caller (normally a
// Sampler tick) must serialize Append calls itself. Allocation-free.
func (s *Series) Append(tsNano int64, v float64) {
	h := s.head.Load()
	i := int(h % uint64(len(s.ts)))
	atomic.StoreInt64(&s.ts[i], tsNano)
	atomic.StoreUint64(&s.vals[i], math.Float64bits(v))
	s.head.Store(h + 1)
}

// Last returns up to n most recent samples, oldest first. The copy is
// consistent: if the writer laps a slot mid-read the affected prefix is
// dropped rather than returned torn.
func (s *Series) Last(n int) []Point {
	if n <= 0 {
		return nil
	}
	capN, phys := uint64(s.Cap()), uint64(len(s.ts))
	for attempt := 0; ; attempt++ {
		h := s.head.Load()
		if h == 0 {
			return nil
		}
		k := uint64(n)
		if k > h {
			k = h
		}
		if k > capN {
			k = capN
		}
		start := h - k
		out := make([]Point, k)
		for i := uint64(0); i < k; i++ {
			idx := (start + i) % phys
			t := atomic.LoadInt64(&s.ts[idx])
			v := atomic.LoadUint64(&s.vals[idx])
			out[i] = Point{TS: t, V: math.Float64frombits(v)}
		}
		// Sample h2 may be in flight: it and everything before it have
		// rewritten the slots of samples up to h2-phys.
		h2 := s.head.Load()
		if h2+1-start <= phys {
			return out
		}
		if attempt >= 4 {
			// The writer lapped us repeatedly (it would take a pathological
			// sampling cadence). Drop the possibly-torn oldest entries and
			// keep the rest.
			torn := h2 + 1 - phys - start
			if torn >= k {
				return nil
			}
			return out[torn:]
		}
	}
}

// Since returns the retained samples with TS >= cutoff (Unix nanos),
// oldest first.
func (s *Series) Since(cutoff int64) []Point {
	pts := s.Last(s.Cap())
	i := sort.Search(len(pts), func(i int) bool { return pts[i].TS >= cutoff })
	return pts[i:]
}

// Latest returns the most recent sample, if any.
func (s *Series) Latest() (Point, bool) {
	pts := s.Last(1)
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[0], true
}

// RateOver returns the per-second rate of change across the samples in
// the window ending at now. For counters this is the throughput over the
// window. ok is false with fewer than two in-window samples or when no
// time elapsed between them. Negative rates (a counter that shrank, e.g.
// after a backend swap) clamp to 0.
func (s *Series) RateOver(now time.Time, window time.Duration) (rate float64, ok bool) {
	pts := s.Since(now.Add(-window).UnixNano())
	if len(pts) < 2 {
		return 0, false
	}
	first, last := pts[0], pts[len(pts)-1]
	elapsed := time.Duration(last.TS - first.TS).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	r := (last.V - first.V) / elapsed
	if r < 0 {
		r = 0
	}
	return r, true
}

// DeltaOver returns the value change across the window ending at now.
// ok is false with fewer than two in-window samples.
func (s *Series) DeltaOver(now time.Time, window time.Duration) (delta float64, ok bool) {
	pts := s.Since(now.Add(-window).UnixNano())
	if len(pts) < 2 {
		return 0, false
	}
	return pts[len(pts)-1].V - pts[0].V, true
}

// DefaultCapacity retains ~8.5 minutes of history at a 1 s cadence.
const DefaultCapacity = 512

// DB is a registry of named series. Registration is cheap and idempotent;
// lookups take a read lock only.
type DB struct {
	mu       sync.RWMutex
	capacity int
	series   map[string]*Series
	order    []string
}

// NewDB returns a registry whose series each retain capacity samples
// (DefaultCapacity when <= 0).
func NewDB(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{capacity: capacity, series: make(map[string]*Series)}
}

// Register returns the named series, creating it with the given kind on
// first use. Re-registering an existing name returns the existing series
// regardless of kind.
func (db *DB) Register(name string, kind Kind) *Series {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s := db.series[name]; s != nil {
		return s
	}
	s = newSeries(kind, db.capacity)
	db.series[name] = s
	db.order = append(db.order, name)
	return s
}

// Lookup returns the named series, or nil.
func (db *DB) Lookup(name string) *Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[name]
}

// Names returns the registered series names in registration order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.order...)
}
