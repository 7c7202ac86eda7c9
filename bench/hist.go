package main

import (
	"math"
	"math/bits"
)

// hist is the bench's own latency histogram. The engine's
// metrics.Histogram has 20 bins per decade (~12 % wide), so p50, p95 and
// p99 of a tight distribution all print the same bucket bound; this one
// is log-linear with 128 sub-buckets per power of two, so a reported
// value is within 1/256 (< 0.4 %) of the recorded one. Values are
// non-negative integers (the bench records nanoseconds).
type hist struct {
	counts map[int]int64 // sparse: a latency run touches a few hundred buckets
	n      int64
	max    int64
}

const histSubBits = 7 // 128 sub-buckets per octave

func newHist() *hist { return &hist{counts: make(map[int]int64)} }

// bucketOf maps a value to its bucket index: values below 2^histSubBits
// get one bucket each, larger ones share an octave between 128 buckets.
func bucketOf(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(v>>uint(shift)) - 1<<histSubBits
}

// bucketMid is the midpoint of a bucket's value range.
func bucketMid(b int) float64 {
	if b < 1<<histSubBits {
		return float64(b)
	}
	shift := uint(b>>histSubBits - 1)
	lo := int64(b&(1<<histSubBits-1)+1<<histSubBits) << shift
	return float64(lo) + float64(int64(1)<<shift-1)/2
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// minBeyond is how many samples must lie beyond a percentile before the
// bench prints it: with fewer, the figure is one or two outliers, not a
// percentile.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1). ok is false — and the
// value must not be printed — when fewer than minBeyond samples lie
// beyond it.
func (h *hist) quantile(q float64) (v float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := int64(math.Ceil(q*float64(h.n) - 1e-9)) // 0.9 × 100 is 90.00000000000001
	if rank < 1 {
		rank = 1
	}
	ok = h.n-rank >= minBeyond && rank >= minBeyond
	// Buckets are few (hundreds); finding the rank by scanning them in
	// index order needs no sorted copy.
	maxB := bucketOf(h.max)
	var seen int64
	for b := 0; b <= maxB; b++ {
		c, hit := h.counts[b]
		if !hit {
			continue
		}
		seen += c
		if seen >= rank {
			return bucketMid(b), ok
		}
	}
	return float64(h.max), ok
}

// histDump is the JSON form dist workers write to the temp dir.
type histDump struct {
	Counts map[int]int64 `json:"counts"`
	Max    int64         `json:"max"`
}

func (h *hist) dump() histDump { return histDump{Counts: h.counts, Max: h.max} }

func (d histDump) load() *hist {
	h := newHist()
	for b, c := range d.Counts {
		h.counts[b] = c
		h.n += c
	}
	h.max = d.Max
	return h
}
