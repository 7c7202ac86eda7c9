package metrics

import "sync"

// SyncTrafficMatrix is a TrafficMatrix safe for concurrent use. The
// simulated engine is single-threaded and uses TrafficMatrix directly; the
// live runtime's executors report sends from many goroutines at once and
// its monitor drains the matrix from yet another, so every operation takes
// an internal lock.
type SyncTrafficMatrix struct {
	mu sync.Mutex
	m  *TrafficMatrix
}

// NewSyncTrafficMatrix returns an empty concurrent matrix.
func NewSyncTrafficMatrix() *SyncTrafficMatrix {
	return &SyncTrafficMatrix{m: NewTrafficMatrix()}
}

// Add records n tuples sent from one executor to another.
func (s *SyncTrafficMatrix) Add(from, to int, n float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Add(from, to, n)
}

// Drain returns all non-zero counts and resets the matrix.
func (s *SyncTrafficMatrix) Drain() map[Pair]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Drain()
}

// SyncHistogram is a Histogram safe for concurrent use — the live runtime
// records end-to-end tuple latencies from every sink executor goroutine.
//
// It keeps two histograms under one lock: a window (reset by Drain, the
// benchmark view) and a cumulative one (never reset, the scraper view via
// Snapshot). Scrapes and drains therefore cannot interfere by
// construction: a Snapshot copies the cumulative side and leaves the
// window untouched, so no benchmark sample is ever lost to a concurrent
// scrape.
type SyncHistogram struct {
	mu  sync.Mutex
	h   *Histogram // current window, swapped out by Drain
	cum *Histogram // lifetime accumulation, copied by Snapshot
}

// NewSyncLatencyHistogram covers the same range as NewLatencyHistogram.
func NewSyncLatencyHistogram() *SyncHistogram {
	return &SyncHistogram{h: NewLatencyHistogram(), cum: NewLatencyHistogram()}
}

// Add records one value into both the window and the cumulative histogram.
func (s *SyncHistogram) Add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h.Add(v)
	s.cum.Add(v)
}

// Drain returns the current window's histogram and replaces it with a
// fresh one of the same shape, so callers can measure disjoint windows
// (e.g. before and after a re-assignment). The cumulative histogram is
// unaffected.
func (s *SyncHistogram) Drain() *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.h
	s.h = NewHistogram(out.lo, out.hi, out.binsPerDecade)
	return out
}

// Snapshot returns a copy of the cumulative (never reset) histogram. It
// does not touch the window, so concurrent Drains lose nothing to it.
func (s *SyncHistogram) Snapshot() *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cum.Clone()
}
