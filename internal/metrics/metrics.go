// Package metrics provides the measurement primitives the paper relies on:
// the EWMA estimator used by load monitors (Y = αY + (1−α)·Sample), the
// 1-minute-bucketed averages used to report tuple processing time, stepped
// gauges (e.g. worker nodes in use over time), and the inter-executor
// traffic matrix sampled by monitors.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tstorm/internal/sim"
)

// EWMA is the exponentially weighted moving average the paper uses to
// smooth instantaneous load readings: Y = αY + (1−α)·Sample. The smaller
// the α, the more sensitive the estimate is to new samples. The first
// sample initializes Y directly.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an estimator with coefficient alpha in [0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of [0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds in one instantaneous sample and returns the new estimate.
func (e *EWMA) Update(sample float64) float64 {
	if !e.seen {
		e.value = sample
		e.seen = true
		return e.value
	}
	e.value = e.alpha*e.value + (1-e.alpha)*sample
	return e.value
}

// Value returns the current estimate (zero before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Point is one bucket of a bucketed series.
type Point struct {
	// Start is the bucket's start instant.
	Start sim.Time
	// Mean is the bucket average (0 when Count is 0).
	Mean float64
	// Count is the number of samples in the bucket.
	Count int64
	// Sum is the bucket total.
	Sum float64
	// Max is the largest sample (0 when Count is 0).
	Max float64
}

// Series accumulates samples into fixed-width time buckets. The paper
// reports 1-minute averages of tuple processing time; Series with
// width=time.Minute reproduces that.
type Series struct {
	width   time.Duration
	buckets map[int64]*Point
}

// NewSeries returns a series with the given bucket width.
func NewSeries(width time.Duration) *Series {
	if width <= 0 {
		panic("metrics: non-positive series bucket width")
	}
	return &Series{width: width, buckets: make(map[int64]*Point)}
}

// Add records one sample at instant t.
func (s *Series) Add(t sim.Time, v float64) {
	idx := int64(t) / int64(s.width)
	b := s.buckets[idx]
	if b == nil {
		b = &Point{Start: sim.Time(idx * int64(s.width))}
		s.buckets[idx] = b
	}
	b.Count++
	b.Sum += v
	b.Mean = b.Sum / float64(b.Count)
	if v > b.Max {
		b.Max = v
	}
}

// Points returns the non-empty buckets in time order. The returned slice
// is a copy and safe to retain.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.buckets))
	for _, b := range s.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// MeanAfter averages all samples recorded at or after t — the paper's
// "counting average processing times after stabilization at Xs".
func (s *Series) MeanAfter(t sim.Time) float64 {
	var sum float64
	var n int64
	for _, b := range s.buckets {
		if b.Start >= t {
			sum += b.Sum
			n += b.Count
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// StepPoint is one level change of a stepped gauge.
type StepPoint struct {
	At    sim.Time
	Value float64
}

// StepSeries records a piecewise-constant value over time, e.g. the number
// of worker nodes in use. Consecutive identical values are coalesced.
type StepSeries struct {
	steps []StepPoint
}

// Set records that the gauge has the given value from instant t on.
func (s *StepSeries) Set(t sim.Time, v float64) {
	if n := len(s.steps); n > 0 {
		if s.steps[n-1].Value == v {
			return
		}
		if s.steps[n-1].At == t {
			s.steps[n-1].Value = v
			// Coalesce back if this made it equal to its predecessor.
			if n > 1 && s.steps[n-2].Value == v {
				s.steps = s.steps[:n-1]
			}
			return
		}
	}
	s.steps = append(s.steps, StepPoint{At: t, Value: v})
}

// Steps returns a copy of all level changes in time order.
func (s *StepSeries) Steps() []StepPoint {
	out := make([]StepPoint, len(s.steps))
	copy(out, s.steps)
	return out
}

// Last returns the most recent value (0 if never set).
func (s *StepSeries) Last() float64 {
	if len(s.steps) == 0 {
		return 0
	}
	return s.steps[len(s.steps)-1].Value
}

// Pair identifies a directed executor pair (from → to) in the traffic
// matrix. Executors are identified by dense integer IDs.
type Pair struct {
	From, To int
}

// TrafficMatrix counts tuples sent between executor pairs. Monitors call
// Drain every sampling period to obtain and reset the window's counts.
//
// Executors are dense indexes (≥ 0), and an executor sends to few others,
// so the matrix is a row of (to, n) cells per source, searched linearly: a
// send in steady state touches one short slice and allocates nothing.
// Drain keeps the rows' storage for the next window.
type TrafficMatrix struct {
	rows [][]trafficCell // by source executor
	n    int             // cells in use across all rows
}

type trafficCell struct {
	to int
	n  float64
}

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix { return &TrafficMatrix{} }

// Add records n tuples sent from one executor to another.
func (m *TrafficMatrix) Add(from, to int, n float64) {
	if from >= len(m.rows) {
		m.rows = append(m.rows, make([][]trafficCell, from+1-len(m.rows))...)
	}
	row := m.rows[from]
	for i := range row {
		if row[i].to == to {
			row[i].n += n
			return
		}
	}
	m.rows[from] = append(row, trafficCell{to, n})
	m.n++
}

// Drain returns every pair counted since the last drain and resets the
// matrix.
func (m *TrafficMatrix) Drain() map[Pair]float64 {
	out := m.Snapshot()
	for i := range m.rows {
		m.rows[i] = m.rows[i][:0]
	}
	m.n = 0
	return out
}

// Snapshot returns a copy of the counts without resetting.
func (m *TrafficMatrix) Snapshot() map[Pair]float64 {
	out := make(map[Pair]float64, m.n)
	for from, row := range m.rows {
		for _, c := range row {
			out[Pair{from, c.to}] = c.n
		}
	}
	return out
}
