// Package monitor implements the paper's load monitors (§IV-B): daemons
// that every sampling period (20 s) read each executor's CPU time and the
// inter-executor tuple counts, convert them to instantaneous rates, smooth
// them with the EWMA Y = αY + (1−α)·Sample, and store the estimates into
// the load database for the schedule generator.
package monitor

import (
	"time"

	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/metrics"
	"tstorm/internal/sim"
)

// DefaultPeriod is the paper's load-monitoring and estimation period.
const DefaultPeriod = 20 * time.Second

// Fleet drives the per-node load monitors of a simulated cluster. One
// Fleet object samples the whole runtime (equivalent to a monitor daemon
// per node, since sampling is node-local reads of executor counters).
type Fleet struct {
	rt     *engine.Runtime
	db     *loaddb.DB
	period time.Duration
	ticker *sim.Ticker
	// knownFlows tracks pairs ever seen so silent pairs decay toward 0
	// instead of freezing at their last estimate.
	knownFlows map[metrics.Pair]bool
	// forgotten lists topologies dropped via Forget: their executors are
	// skipped entirely so samples cannot resurrect keys the database has
	// deleted.
	forgotten map[string]bool
}

// Start creates the fleet and schedules sampling every period on the
// runtime's simulation engine. The first sample is taken one full period
// after start.
func Start(rt *engine.Runtime, db *loaddb.DB, period time.Duration) *Fleet {
	if period <= 0 {
		period = DefaultPeriod
	}
	f := &Fleet{
		rt:         rt,
		db:         db,
		period:     period,
		knownFlows: make(map[metrics.Pair]bool),
		forgotten:  make(map[string]bool),
	}
	f.ticker = rt.Sim().Every(period, period, f.Sample)
	return f
}

// Stop halts sampling.
func (f *Fleet) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// Forget drops a topology from the fleet's memory and removes its records
// from the load database: knownFlows entries are pruned and later samples
// skip the topology's executors, so the zero-rate decay writes cannot
// resurrect keys DB.Forget deleted (which would also keep HasData true for
// a dead topology). The live monitor offers the same contract.
func (f *Fleet) Forget(topo string) {
	f.forgotten[topo] = true
	for p := range f.knownFlows {
		if f.rt.ExecutorByDense(p.From).Topology == topo ||
			f.rt.ExecutorByDense(p.To).Topology == topo {
			delete(f.knownFlows, p)
		}
	}
	f.db.Forget(topo)
}

// Sample performs one sampling round: drain CPU counters and the traffic
// matrix, convert to MHz and tuples/s, and update the database.
func (f *Fleet) Sample() {
	secs := f.period.Seconds()

	for _, s := range f.rt.DrainLoadSamples() {
		if f.forgotten[s.Exec.Topology] {
			continue
		}
		// cycles over the window → MHz (1 MHz = 1e6 cycles/s).
		mhz := s.Cycles / secs / 1e6
		f.db.UpdateExecutorLoad(s.Exec, mhz)
	}

	flows := f.rt.DrainTraffic()
	for p, count := range flows {
		from, to := f.rt.ExecutorByDense(p.From), f.rt.ExecutorByDense(p.To)
		if f.forgotten[from.Topology] || f.forgotten[to.Topology] {
			continue
		}
		f.knownFlows[p] = true
		f.db.UpdateTraffic(from, to, count/secs)
	}
	// Pairs that were active before but silent this window decay to 0.
	for p := range f.knownFlows {
		if _, active := flows[p]; !active {
			f.db.UpdateTraffic(f.rt.ExecutorByDense(p.From), f.rt.ExecutorByDense(p.To), 0)
		}
	}
}
