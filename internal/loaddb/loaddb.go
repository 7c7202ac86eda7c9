// Package loaddb is the load-information database of the paper's
// architecture (§IV-B): load monitors write EWMA-smoothed executor
// workloads (CPU MHz) and inter-executor traffic rates (tuples/s) into it
// every sampling period, and the schedule generator reads consistent
// snapshots out of it as the input to the scheduling algorithm.
//
// Order invariant: a snapshot lists its flows in (From, To) order, by
// topology.ExecutorID.Compare on each endpoint, so every reader that sums
// over flows — Algorithm 1's line-2 totals, TotalTraffic, the inter-node
// rate, the golden hash — adds the same floats in the same order on
// every backend.
package loaddb

import (
	"maps"
	"slices"
	"sync"

	"tstorm/internal/predictor"
	"tstorm/internal/topology"
)

// FlowKey identifies a directed executor pair.
type FlowKey struct {
	From, To topology.ExecutorID
}

// Flow is one smoothed traffic entry.
type Flow struct {
	From, To topology.ExecutorID
	// Rate is tuples per second, EWMA-smoothed.
	Rate float64
}

// Snapshot is a consistent read of the database.
type Snapshot struct {
	// ExecLoad maps executor to its smoothed CPU usage in MHz.
	ExecLoad map[topology.ExecutorID]float64
	// ExecMem maps executor to its smoothed memory footprint in MB. Nil
	// or missing entries mean no monitor has reported memory for the
	// executor; demand derivation falls back to a model baseline.
	ExecMem map[topology.ExecutorID]float64
	// Flows lists smoothed traffic rates in the package's order
	// invariant: by From, then To.
	Flows []Flow
}

// TotalTraffic returns each executor's total (incoming + outgoing) rate —
// the sort key of Algorithm 1.
func (s *Snapshot) TotalTraffic() map[topology.ExecutorID]float64 {
	out := make(map[topology.ExecutorID]float64, len(s.ExecLoad))
	for _, f := range s.Flows {
		out[f.From] += f.Rate
		out[f.To] += f.Rate
	}
	return out
}

// flowEstimate is one pair's estimate in the database's dense flow list.
type flowEstimate struct {
	FlowKey
	est predictor.Estimator
}

// DB is the load database. It is safe for concurrent use.
type DB struct {
	mu      sync.Mutex
	factory predictor.Factory
	load    map[topology.ExecutorID]predictor.Estimator
	mem     map[topology.ExecutorID]predictor.Estimator
	// pairs maps a pair to its estimate; flows lists the pairs in arrival
	// order and order their positions in (From, To) order, sorted again
	// only after a pair arrived (flows outgrew order) or left (Forget).
	pairs map[FlowKey]predictor.Estimator
	flows []flowEstimate
	order []int32
}

// New returns an empty database using the paper's EWMA estimator with
// coefficient alpha (the paper uses α = 0.5).
func New(alpha float64) *DB {
	return NewWithEstimator(predictor.EWMAFactory(alpha))
}

// NewWithEstimator returns an empty database whose per-signal estimates
// come from the given estimator factory — the paper's "other estimation/
// prediction methods can be easily integrated" extension point (§IV-B).
func NewWithEstimator(factory predictor.Factory) *DB {
	return &DB{
		factory: factory,
		load:    make(map[topology.ExecutorID]predictor.Estimator),
		mem:     make(map[topology.ExecutorID]predictor.Estimator),
		pairs:   make(map[FlowKey]predictor.Estimator),
	}
}

// estimate returns the executor's estimator in m, creating it on first
// use. Caller holds db.mu.
func (db *DB) estimate(m map[topology.ExecutorID]predictor.Estimator, e topology.ExecutorID) predictor.Estimator {
	est := m[e]
	if est == nil {
		est = db.factory()
		m[e] = est
	}
	return est
}

// updateFlow folds one rate sample into the pair's estimate, appending
// the pair on first use. Caller holds db.mu.
func (db *DB) updateFlow(k FlowKey, rate float64) {
	est := db.pairs[k]
	if est == nil {
		est = db.factory()
		db.pairs[k] = est
		if len(db.flows) == cap(db.flows) { // pairs arrive in bulk: double, not append's 1.25×
			db.flows = slices.Grow(db.flows, len(db.flows))
		}
		db.flows = append(db.flows, flowEstimate{FlowKey: k, est: est})
	}
	est.Update(rate)
}

// UpdateExecutorLoad folds one instantaneous workload sample (MHz) into
// the executor's estimate.
func (db *DB) UpdateExecutorLoad(e topology.ExecutorID, mhz float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimate(db.load, e).Update(mhz)
}

// UpdateExecutorMemory folds one instantaneous memory footprint sample
// (MB) into the executor's estimate. Memory is a separate signal from the
// CPU workload: not every monitor reports it, and the scheduler falls
// back to a model baseline for executors it has never seen.
func (db *DB) UpdateExecutorMemory(e topology.ExecutorID, mb float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimate(db.mem, e).Update(mb)
}

// UpdateTraffic folds one instantaneous rate sample (tuples/s) into the
// pair's estimate.
func (db *DB) UpdateTraffic(from, to topology.ExecutorID, rate float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.updateFlow(FlowKey{From: from, To: to}, rate)
}

// ApplyWindow folds one whole monitoring window into the database under a
// single lock acquisition: every executor's instantaneous workload (MHz)
// and every pair's instantaneous rate (tuples/s). The live runtime's
// monitor uses it so a window of dozens of samples costs one lock
// round-trip instead of one per signal; the result is identical to calling
// UpdateExecutorLoad / UpdateTraffic per entry.
func (db *DB) ApplyWindow(loads map[topology.ExecutorID]float64, flows map[FlowKey]float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e, mhz := range loads {
		db.estimate(db.load, e).Update(mhz)
	}
	for k, rate := range flows {
		db.updateFlow(k, rate)
	}
}

// ApplyMemory folds one monitoring window of per-executor memory samples
// (MB) under a single lock acquisition. It is deliberately a separate
// method from ApplyWindow: ApplyWindow's signature is part of the
// LoadSink interface the distributed control plane ships over the wire,
// and memory is an optional signal discovered by type assertion.
func (db *DB) ApplyMemory(mem map[topology.ExecutorID]float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e, mb := range mem {
		db.estimate(db.mem, e).Update(mb)
	}
}

// HasData reports whether any sample has ever been written — the schedule
// generator refuses to run the traffic-aware algorithm before monitors
// have reported.
func (db *DB) HasData() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.load) > 0
}

// Forget removes all records of the given topology's executors, e.g. when
// a topology is killed.
func (db *DB) Forget(topo string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ofTopo := func(e topology.ExecutorID, _ predictor.Estimator) bool { return e.Topology == topo }
	maps.DeleteFunc(db.load, ofTopo)
	maps.DeleteFunc(db.mem, ofTopo)
	gone := func(k FlowKey) bool { return k.From.Topology == topo || k.To.Topology == topo }
	maps.DeleteFunc(db.pairs, func(k FlowKey, _ predictor.Estimator) bool { return gone(k) })
	db.flows = slices.DeleteFunc(db.flows, func(f flowEstimate) bool { return gone(f.FlowKey) })
	db.order = db.order[:0]
}

// ExecLoads returns a copy of every executor's smoothed CPU usage in MHz:
// a snapshot's ExecLoad, for readers such as the overload check.
func (db *DB) ExecLoads() map[topology.ExecutorID]float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return values(db.load)
}

// values copies each estimator's current value. Caller holds db.mu.
func values(m map[topology.ExecutorID]predictor.Estimator) map[topology.ExecutorID]float64 {
	out := make(map[topology.ExecutorID]float64, len(m))
	for e, est := range m {
		out[e] = est.Value()
	}
	return out
}

// Snapshot returns a consistent copy of all estimates.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{ExecLoad: values(db.load)}
	if len(db.mem) > 0 {
		s.ExecMem = values(db.mem)
	}
	if len(db.order) != len(db.flows) {
		db.order = slices.Grow(db.order, len(db.flows)-len(db.order))
		for i := len(db.order); i < len(db.flows); i++ {
			db.order = append(db.order, int32(i))
		}
		slices.SortFunc(db.order, func(i, j int32) int {
			a, b := &db.flows[i].FlowKey, &db.flows[j].FlowKey
			if c := a.From.Compare(b.From); c != 0 {
				return c
			}
			return a.To.Compare(b.To)
		})
	}
	s.Flows = make([]Flow, len(db.order))
	for n, i := range db.order {
		f := &db.flows[i]
		s.Flows[n] = Flow{From: f.From, To: f.To, Rate: f.est.Value()}
	}
	return s
}
