// Package engine executes Storm topologies on the simulated cluster: it
// instantiates executors inside worker processes, routes tuples between
// them according to stream groupings and the live assignment, charges CPU
// and network costs, runs the ack/timeout/replay protocol, and implements
// the supervisor-side worker lifecycle for both Storm's abrupt
// re-assignment and T-Storm's smoothed re-assignment (§IV-D).
package engine

import (
	"fmt"
	"math/rand/v2"
	"time"

	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// Context gives user code its identity within the topology.
type Context struct {
	// Topology is the topology name.
	Topology string
	// Component is the component name.
	Component string
	// Index is the executor index within the component.
	Index int
	// Parallelism is the component's executor count.
	Parallelism int
	// Rand is a deterministic per-instance random source.
	Rand *rand.Rand
}

// Emitter is handed to user code to emit tuples. Emissions from a bolt's
// Execute are anchored to the input tuple; emissions from a spout's
// NextTuple become new roots tracked by the ack protocol.
type Emitter interface {
	// Emit sends values on the named stream ("" means the default stream)
	// to every subscribed consumer per its grouping. Consumers subscribed
	// with direct grouping are skipped (use EmitDirect).
	Emit(stream string, vals tuple.Values)
	// EmitDirect sends values on the named stream to one specific task of
	// one specific consumer subscribed with direct grouping.
	EmitDirect(consumer string, taskIndex int, stream string, vals tuple.Values)
}

// SpoutEmitter extends Emitter for spouts: emissions carry the spout's own
// message ID so the engine can call Ack/Fail with it later.
type SpoutEmitter interface {
	Emitter
	// EmitWithID emits a new root tuple tied to msgID. On full processing
	// the spout's Ack(msgID) is called; on timeout, Fail(msgID).
	EmitWithID(stream string, vals tuple.Values, msgID any)
}

// Spout produces the topology's input stream. Implementations are
// instantiated per executor (per worker incarnation) via App.Spouts.
type Spout interface {
	// Open is called once when the executor starts.
	Open(ctx *Context)
	// NextTuple is called on every emit cycle; it may emit zero or more
	// tuples. The engine calls it again after the spout's configured
	// emit interval (rate control, the paper's 5 ms sleep).
	NextTuple(emit SpoutEmitter)
	// Ack signals that the tuple emitted with msgID was fully processed.
	Ack(msgID any)
	// Fail signals that the tuple emitted with msgID timed out; reliable
	// spouts re-emit it on a later NextTuple.
	Fail(msgID any)
}

// Bolt consumes and processes tuples. Implementations are instantiated per
// executor (per worker incarnation) via App.Bolts.
type Bolt interface {
	// Prepare is called once when the executor starts.
	Prepare(ctx *Context)
	// Execute processes one input tuple; emissions are anchored to it and
	// the input is acked automatically when Execute returns.
	Execute(in tuple.Tuple, emit Emitter)
}

// CostFn returns the CPU cost, in cycles, of processing one tuple (for
// bolts) or of one NextTuple call (for spouts). 1 MHz = 1e6 cycles/s, so a
// 2000 MHz core delivers 2e9 cycles per second.
type CostFn func(in tuple.Tuple) float64

// Cycles converts "d of CPU time on a core of atMHz" into cycles, the unit
// CostFn uses.
func Cycles(d time.Duration, atMHz float64) float64 {
	return d.Seconds() * atMHz * 1e6
}

// ConstCost returns a CostFn that charges the same cycles for every tuple.
func ConstCost(cycles float64) CostFn {
	return func(tuple.Tuple) float64 { return cycles }
}

// DefaultSpoutInterval is the emit-cycle interval used when an App does
// not configure one — the 5 ms rate-control sleep of the paper's
// Throughput Test spout.
const DefaultSpoutInterval = 5 * time.Millisecond

// App bundles a validated topology with the code and cost model of its
// components — everything Submit needs to run it.
type App struct {
	Topology *topology.Topology
	// Spouts and Bolts construct fresh component instances; they are
	// invoked once per executor per worker incarnation (state does not
	// survive a worker restart, as in Storm).
	Spouts map[string]func() Spout
	Bolts  map[string]func() Bolt
	// Costs gives each component's per-tuple CPU cost. Components absent
	// from the map use DefaultCost.
	Costs map[string]CostFn
	// SpoutInterval overrides the emit-cycle interval per spout.
	SpoutInterval map[string]time.Duration
	// MaxPending caps a spout's outstanding (un-acked) roots; 0 = unlimited.
	MaxPending map[string]int
}

// DefaultCost is used for components with no entry in App.Costs:
// 0.05 ms on a 2 GHz core.
var DefaultCost = ConstCost(Cycles(50*time.Microsecond, 2000))

// Validate checks that every declared component has code and that no code
// is dangling.
func (a *App) Validate() error {
	if a.Topology == nil {
		return fmt.Errorf("engine: app has no topology")
	}
	for _, name := range a.Topology.ComponentNames() {
		c, _ := a.Topology.Component(name)
		switch c.Kind {
		case topology.SpoutKind:
			if a.Spouts[name] == nil {
				return fmt.Errorf("engine: spout %q has no factory", name)
			}
		case topology.BoltKind:
			if name != topology.AckerComponent && a.Bolts[name] == nil {
				return fmt.Errorf("engine: bolt %q has no factory", name)
			}
		}
	}
	for name := range a.Spouts {
		if c, ok := a.Topology.Component(name); !ok || c.Kind != topology.SpoutKind {
			return fmt.Errorf("engine: spout factory %q matches no spout", name)
		}
	}
	for name := range a.Bolts {
		if c, ok := a.Topology.Component(name); !ok || c.Kind != topology.BoltKind {
			return fmt.Errorf("engine: bolt factory %q matches no bolt", name)
		}
	}
	return nil
}

func (a *App) costFor(component string) CostFn {
	if fn, ok := a.Costs[component]; ok {
		return fn
	}
	return DefaultCost
}

func (a *App) spoutIntervalFor(component string) time.Duration {
	if d, ok := a.SpoutInterval[component]; ok && d > 0 {
		return d
	}
	return DefaultSpoutInterval
}
