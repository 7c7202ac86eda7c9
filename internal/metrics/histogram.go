package metrics

import (
	"fmt"
	"math"
)

// Histogram is a fixed-memory, log-bucketed histogram for positive values
// (latencies in milliseconds). Buckets are geometric with binsPerDecade
// bins per power of ten, spanning [lo, hi); values outside are clamped
// into the edge bins. Quantiles are answered from bucket midpoints, so
// relative error is bounded by the bucket ratio (~12% at 20 bins/decade).
type Histogram struct {
	lo, hi        float64
	binsPerDecade int
	counts        []int64
	total         int64
	sum           float64
	max           float64
}

// NewHistogram returns a histogram over [lo, hi) with the given bins per
// decade. lo must be positive and less than hi.
func NewHistogram(lo, hi float64, binsPerDecade int) *Histogram {
	if lo <= 0 || hi <= lo || binsPerDecade < 1 {
		panic(fmt.Sprintf("metrics: bad histogram bounds (%v, %v, %d)", lo, hi, binsPerDecade))
	}
	decades := math.Log10(hi / lo)
	n := int(math.Ceil(decades * float64(binsPerDecade)))
	return &Histogram{lo: lo, hi: hi, binsPerDecade: binsPerDecade, counts: make([]int64, n)}
}

// NewLatencyHistogram covers 1 µs to ~10^7 ms (2.8 hours) at 20 bins per
// decade — every latency this system can produce.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1e-3, 1e7, 20)
}

func (h *Histogram) bin(v float64) int {
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
func (h *Histogram) Add(v float64) {
	if !(v > 0) || math.IsInf(v, 0) {
		return
	}
	h.counts[h.bin(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// upperBound returns bin i's exclusive upper bound.
func (h *Histogram) upperBound(i int) float64 {
	return h.lo * math.Pow(10, float64(i+1)/float64(h.binsPerDecade))
}

// Bucket is one non-empty bin of a histogram, for exposition.
type Bucket struct {
	// UpperBound is the bin's exclusive upper bound.
	UpperBound float64
	// Count is the number of values recorded in the bin.
	Count int64
}

// Buckets returns the non-empty bins in ascending bound order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, Bucket{UpperBound: h.upperBound(i), Count: c})
		}
	}
	return out
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return &c
}

// Sub returns the window between two cumulative snapshots of the same
// histogram: a histogram holding the samples recorded in h but not yet
// in prev. It panics on mismatched geometry. The window's max is h's
// cumulative max — an upper bound, since per-window maxima are not
// retained — which only tightens the quantile cap.
func (h *Histogram) Sub(prev *Histogram) *Histogram {
	if prev == nil {
		return h.Clone()
	}
	if h.lo != prev.lo || h.hi != prev.hi || h.binsPerDecade != prev.binsPerDecade {
		panic("metrics: Sub across mismatched histogram geometries")
	}
	w := *h
	w.counts = make([]int64, len(h.counts))
	for i := range h.counts {
		if d := h.counts[i] - prev.counts[i]; d > 0 {
			w.counts[i] = d
		}
	}
	w.total = h.total - prev.total
	if w.total < 0 {
		w.total = 0
	}
	w.sum = h.sum - prev.sum
	if w.sum < 0 {
		w.sum = 0
	}
	return &w
}

// Count reports the number of recorded values.
func (h *Histogram) Count() int64 { return h.total }

// Sum reports the exact sum of recorded values.
func (h *Histogram) Sum() float64 { return h.sum }

// Max reports the exact maximum recorded value.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the approximate q-quantile (0 < q ≤ 1), from the
// geometric midpoint of the bucket containing it. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lower := h.lo * math.Pow(10, float64(i)/float64(h.binsPerDecade))
			upper := h.lo * math.Pow(10, float64(i+1)/float64(h.binsPerDecade))
			mid := math.Sqrt(lower * upper)
			if mid > h.max && h.max > 0 {
				return h.max
			}
			return mid
		}
	}
	return h.max
}
