// Package predictor provides pluggable load estimators for the monitoring
// pipeline. The paper smooths instantaneous readings with the EWMA
// Y = αY + (1−α)·Sample and notes that "other machine learning based
// estimation/prediction methods can be easily integrated" (§IV-B); this
// package is that integration point. The load database accepts any
// Estimator factory, so the schedule generator transparently consumes
// whichever estimate the operator configures.
package predictor

import (
	"fmt"

	"tstorm/internal/metrics"
)

// Estimator folds in instantaneous samples and produces the smoothed (or
// forecast) value the scheduler should plan with.
type Estimator interface {
	// Update folds in one sample.
	Update(sample float64)
	// Value returns the current estimate.
	Value() float64
}

// Factory creates one estimator instance per monitored signal.
type Factory func() Estimator

// EWMA is the paper's estimator. It holds the average by value, so each
// monitored signal costs one allocation.
type EWMA struct {
	inner metrics.EWMA
}

// NewEWMA returns the paper's α-weighted moving average.
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{inner: *metrics.NewEWMA(alpha)}
}

// Update folds in one sample.
func (e *EWMA) Update(sample float64) { e.inner.Update(sample) }

// Value returns the current estimate.
func (e *EWMA) Value() float64 { return e.inner.Value() }

// EWMAFactory returns a Factory for the paper's estimator.
func EWMAFactory(alpha float64) Factory {
	return func() Estimator { return NewEWMA(alpha) }
}

// SlidingMean averages the last N samples — less smooth than EWMA but
// with bounded memory of the past.
type SlidingMean struct {
	window []float64
	next   int
	filled int
	sum    float64
}

// NewSlidingMean returns a mean over the last n samples (n ≥ 1).
func NewSlidingMean(n int) *SlidingMean {
	if n < 1 {
		panic(fmt.Sprintf("predictor: window %d must be ≥ 1", n))
	}
	return &SlidingMean{window: make([]float64, n)}
}

// Update folds in one sample.
func (s *SlidingMean) Update(sample float64) {
	if s.filled == len(s.window) {
		s.sum -= s.window[s.next]
	} else {
		s.filled++
	}
	s.window[s.next] = sample
	s.sum += sample
	s.next = (s.next + 1) % len(s.window)
}

// Value returns the window mean (0 before any sample).
func (s *SlidingMean) Value() float64 {
	if s.filled == 0 {
		return 0
	}
	return s.sum / float64(s.filled)
}

// SlidingMeanFactory returns a Factory for window means.
func SlidingMeanFactory(n int) Factory {
	return func() Estimator { return NewSlidingMean(n) }
}

// Holt is double exponential smoothing: it tracks a level and a trend and
// forecasts one sampling period ahead, reacting to load ramps faster than
// any averaging estimator — useful for overload prevention.
type Holt struct {
	alpha, beta  float64
	level, trend float64
	samples      int
}

// NewHolt returns a Holt estimator with level gain alpha and trend gain
// beta, both in (0, 1].
func NewHolt(alpha, beta float64) *Holt {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("predictor: Holt gains (%v, %v) out of (0,1]", alpha, beta))
	}
	return &Holt{alpha: alpha, beta: beta}
}

// Update folds in one sample.
func (h *Holt) Update(sample float64) {
	h.samples++
	switch h.samples {
	case 1:
		h.level = sample
		return
	case 2:
		h.trend = sample - h.level
		h.level = sample
		return
	}
	prevLevel := h.level
	h.level = h.alpha*sample + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
}

// Value forecasts one period ahead (level + trend). Forecasts never go
// negative: load cannot.
func (h *Holt) Value() float64 {
	v := h.level + h.trend
	if v < 0 {
		return 0
	}
	return v
}

// HoltFactory returns a Factory for Holt estimators.
func HoltFactory(alpha, beta float64) Factory {
	return func() Estimator { return NewHolt(alpha, beta) }
}

// WindowMax tracks the maximum of the last N samples — the conservative
// choice when the scheduler must never under-provision.
type WindowMax struct {
	window []float64
	next   int
	filled int
}

// NewWindowMax returns a max over the last n samples (n ≥ 1).
func NewWindowMax(n int) *WindowMax {
	if n < 1 {
		panic(fmt.Sprintf("predictor: window %d must be ≥ 1", n))
	}
	return &WindowMax{window: make([]float64, n)}
}

// Update folds in one sample.
func (w *WindowMax) Update(sample float64) {
	if w.filled < len(w.window) {
		w.filled++
	}
	w.window[w.next] = sample
	w.next = (w.next + 1) % len(w.window)
}

// Value returns the window max (0 before any sample).
func (w *WindowMax) Value() float64 {
	m := 0.0
	for i := 0; i < w.filled; i++ {
		if w.window[i] > m {
			m = w.window[i]
		}
	}
	return m
}

// WindowMaxFactory returns a Factory for window maxima.
func WindowMaxFactory(n int) Factory {
	return func() Estimator { return NewWindowMax(n) }
}

// Interface checks.
var (
	_ Estimator = (*EWMA)(nil)
	_ Estimator = (*SlidingMean)(nil)
	_ Estimator = (*Holt)(nil)
	_ Estimator = (*WindowMax)(nil)
)
