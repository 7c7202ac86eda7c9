package metrics

import (
	"math"
	"sync/atomic"
)

// AtomicHistogram is a log-bucketed histogram whose Add path is a handful
// of atomic increments — no lock, no allocation — so it can sit on the
// live runtime's per-tuple hot path (one per executor, written by the
// executor's own goroutine, read at any time by a scraper). It shares
// Histogram's bucket geometry; Snapshot converts it to a plain Histogram
// for quantiles and exposition.
//
// The sum is kept in nanounits (value × 1e6 for millisecond values keeps
// sub-microsecond resolution over centuries of accumulated latency); the
// max is a CAS loop over the float bits, which for a single writer almost
// never retries.
type AtomicHistogram struct {
	lo, hi        float64
	binsPerDecade int
	counts        []atomic.Int64
	sumScaled     atomic.Int64 // value × sumScale
	maxBits       atomic.Uint64
}

// sumScale converts recorded values to the integer units sumScaled
// accumulates.
const sumScale = 1e6

// NewAtomicHistogram returns an atomic histogram over [lo, hi) with the
// given bins per decade (same constraints as NewHistogram).
func NewAtomicHistogram(lo, hi float64, binsPerDecade int) *AtomicHistogram {
	shape := NewHistogram(lo, hi, binsPerDecade)
	return &AtomicHistogram{
		lo:            lo,
		hi:            hi,
		binsPerDecade: binsPerDecade,
		counts:        make([]atomic.Int64, len(shape.counts)),
	}
}

// NewProcLatencyHistogram covers 0.1 µs to 10 s in milliseconds at 10 bins
// per decade — the range of one bolt Execute call.
func NewProcLatencyHistogram() *AtomicHistogram {
	return NewAtomicHistogram(1e-4, 1e4, 10)
}

func (h *AtomicHistogram) bin(v float64) int {
	if v < h.lo {
		return 0
	}
	i := int(math.Log10(v/h.lo) * float64(h.binsPerDecade))
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// Add records one value. Non-positive and NaN values are ignored.
func (h *AtomicHistogram) Add(v float64) {
	if !(v > 0) || math.IsInf(v, 0) {
		return
	}
	h.counts[h.bin(v)].Add(1)
	h.sumScaled.Add(int64(v * sumScale))
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Snapshot returns the current contents as a plain Histogram. Concurrent
// Adds may straddle the copy (a count landing without its sum), skewing
// the snapshot by at most the in-flight values.
func (h *AtomicHistogram) Snapshot() *Histogram {
	out := NewHistogram(h.lo, h.hi, h.binsPerDecade)
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		out.counts[i] = c
		total += c
	}
	// The total is the copied bins' sum, so total == sum(counts) even
	// mid-Add; sum and max are best-effort companions.
	out.total = total
	out.sum = float64(h.sumScaled.Load()) / sumScale
	out.max = math.Float64frombits(h.maxBits.Load())
	return out
}
