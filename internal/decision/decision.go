// Package decision records why the scheduler placed every executor where
// it did. A Builder rides along one Schedule call as the optional probe in
// scheduler.Input: Algorithm 1 reports, per executor, every candidate slot
// with its co-location gain and — for infeasible slots — which of the
// paper's three constraints rejected it. The finished Report summarizes
// the round (predicted inter-node traffic before/after, executors moved,
// nodes used, duration), and a History retains the last N reports plus a
// ring of traffic-matrix snapshots and reconciles the predictions against
// the live engine's observed inter-node counters.
//
// The package is a leaf below the scheduling stack (it imports only the
// data-model packages), so both internal/core and the baseline algorithms
// in internal/scheduler can feed the same probe without an import cycle.
package decision

import (
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// Constraint names the Algorithm 1 feasibility rule that rejected a
// candidate slot (empty for feasible slots).
type Constraint string

const (
	// RejectedSlot is constraint 1: the slot is owned by another topology,
	// or this topology already uses a different slot on the node
	// (one slot per topology per node).
	RejectedSlot Constraint = "slot"
	// RejectedCapacity is constraint 2: assigning the executor would push
	// the node's workload past C_k (the Constraints.CPUFraction share of
	// physical capacity).
	RejectedCapacity Constraint = "capacity"
	// RejectedCount is constraint 3: the node already holds γ·N_e/K
	// executors (the consolidation cap).
	RejectedCount Constraint = "count"
	// RejectedMemory is the memory dimension of the multi-resource
	// schedulers (rstorm): assigning the executor would push the node's
	// committed memory past its usable MemMB.
	RejectedMemory Constraint = "memory"
	// RejectedNet is the network-bandwidth dimension: assigning the
	// executor would push the node's committed bandwidth past its usable
	// NetMBps.
	RejectedNet Constraint = "net"
)

// SlotOption is one candidate slot evaluated for one executor during the
// strict (unrelaxed) pass.
type SlotOption struct {
	Slot cluster.SlotID `json:"slot"`
	// Gain is the traffic rate (tuples/s) the executor would co-locate by
	// landing on the slot's node — what Algorithm 1 maximizes.
	Gain float64 `json:"gain"`
	// Rejected names the first constraint that made the slot infeasible;
	// empty means the slot was a feasible candidate.
	Rejected Constraint `json:"rejected,omitempty"`
	// Chosen marks the winning slot.
	Chosen bool `json:"chosen,omitempty"`
}

// Placement explains one executor's placement decision.
type Placement struct {
	Executor topology.ExecutorID `json:"executor"`
	// Rank is the executor's position in the descending total-traffic
	// order (line 2 of Algorithm 1) — placement order for algorithms that
	// do not sort by traffic.
	Rank int `json:"rank"`
	// Traffic is the executor's total (incoming + outgoing) rate, the
	// sort key.
	Traffic float64 `json:"traffic"`
	// Load is the executor's smoothed CPU workload l_i in MHz.
	Load float64 `json:"load_mhz"`
	// Slot is where the executor landed; Gain is that slot's co-located
	// traffic rate.
	Slot cluster.SlotID `json:"slot"`
	Gain float64        `json:"gain"`
	// RelaxedCount / RelaxedCapacity record which constraints had to be
	// lifted before any slot became feasible for this executor.
	RelaxedCount    bool `json:"relaxed_count,omitempty"`
	RelaxedCapacity bool `json:"relaxed_capacity,omitempty"`
	// Options lists every candidate slot from the strict pass with its
	// gain and rejection verdict. Empty for algorithms that do not
	// evaluate per-slot constraints (the baselines).
	Options []SlotOption `json:"options,omitempty"`
}

// Report summarizes one scheduling round end to end.
type Report struct {
	// Round is the 1-based sequence number assigned by History.Add (0
	// until then).
	Round int64 `json:"round"`
	// Algorithm is the scheduling algorithm's Name().
	Algorithm string `json:"algorithm"`
	// Start and Duration time the Schedule call (wall clock).
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Gamma, CapacityFraction, and CountCap are Algorithm 1's effective
	// parameters for the round (zero for algorithms without them).
	Gamma            float64 `json:"gamma,omitempty"`
	CapacityFraction float64 `json:"capacity_fraction,omitempty"`
	CountCap         float64 `json:"count_cap,omitempty"`
	// Executors and Nodes are the round's N_e and K. For Algorithm 1 and
	// the resource-aware contenders K counts the nodes with a free slot —
	// the divisor of the count cap — not nodes fenced off as failed.
	Executors int `json:"executors"`
	Nodes     int `json:"nodes"`
	// NodesUsed counts distinct nodes in the produced assignment.
	NodesUsed int `json:"nodes_used"`
	// Relaxations counts placements that needed constraint relaxation.
	Relaxations int `json:"relaxations"`
	// PredictedBefore is the incumbent assignment's inter-node traffic
	// rate under the round's load snapshot (-1 when there was none), and
	// PredictedAfter the produced assignment's — the scheduler's own
	// prediction of what it saved.
	PredictedBefore float64 `json:"predicted_before"`
	PredictedAfter  float64 `json:"predicted_after"`
	// Moved counts executors whose slot differs from the incumbent
	// assignment (-1 when unknown); Applied reports whether the round's
	// schedule was actually applied/published.
	Moved   int  `json:"moved"`
	Applied bool `json:"applied"`
	// Placements explains every executor's decision in placement order.
	Placements []Placement `json:"placements"`
}

// Builder collects one Schedule call's decisions. Attach one to
// scheduler.Input.Probe; the algorithm fills it while it runs and the
// caller (a generator, or an offline tool) finalizes the report. A
// Builder is single-use and not safe for concurrent use — each Schedule
// call owns its own, so probe work never touches the emission hot path.
type Builder struct {
	rep      Report
	start    time.Time
	finished bool
}

// NewBuilder starts timing a round.
func NewBuilder() *Builder {
	return &Builder{
		start: time.Now(),
		rep:   Report{PredictedBefore: -1, Moved: -1},
	}
}

// Begin records the round's shape: the algorithm name, N_e, and K.
func (b *Builder) Begin(algorithm string, executors, nodes int) {
	b.rep.Algorithm = algorithm
	b.rep.Executors = executors
	b.rep.Nodes = nodes
	b.rep.Start = b.start
}

// Policy records Algorithm 1's effective parameters for the round.
func (b *Builder) Policy(gamma, capacityFraction, countCap float64) {
	b.rep.Gamma = gamma
	b.rep.CapacityFraction = capacityFraction
	b.rep.CountCap = countCap
}

// Place appends one executor's decision.
func (b *Builder) Place(p Placement) {
	b.rep.Placements = append(b.rep.Placements, p)
}

// Finish closes the round: it stamps the duration, derives the relaxation
// count from the placements, and — when an assignment and load snapshot
// are given — computes the predicted inter-node traffic and node count of
// the produced schedule. It returns the report for further annotation
// (PredictedBefore, Moved, Applied) and is idempotent.
func (b *Builder) Finish(a *cluster.Assignment, load *loaddb.Snapshot) *Report {
	if b.finished {
		return &b.rep
	}
	b.finished = true
	b.rep.Duration = time.Since(b.start)
	b.rep.Relaxations = 0
	for i := range b.rep.Placements {
		if b.rep.Placements[i].RelaxedCount || b.rep.Placements[i].RelaxedCapacity {
			b.rep.Relaxations++
		}
	}
	if a != nil {
		b.rep.NodesUsed = a.NumUsedNodes()
		if load != nil {
			b.rep.PredictedAfter = InterNodeRate(a, load)
		}
	}
	return &b.rep
}

// Report returns the report, finalizing it first if the algorithm never
// called Finish.
func (b *Builder) Report() *Report {
	if !b.finished {
		return b.Finish(nil, nil)
	}
	return &b.rep
}

// InterNodeRate is the scheduling objective: the total traffic rate
// (tuples/s) crossing node boundaries under the assignment. It is the
// same computation as core.InterNodeTraffic, housed here so the probe
// layer stays below the scheduler packages.
func InterNodeRate(a *cluster.Assignment, load *loaddb.Snapshot) float64 {
	if a == nil || load == nil {
		return 0
	}
	total := 0.0
	for _, f := range load.Flows {
		sa, okA := a.Slot(f.From)
		sb, okB := a.Slot(f.To)
		if okA && okB && sa.Node != sb.Node {
			total += f.Rate
		}
	}
	return total
}

// MovedExecutors counts executors whose slot under next differs from (or
// is absent in) cur — the migration count a round would cause.
func MovedExecutors(next, cur *cluster.Assignment) int {
	moved := 0
	for e, s := range next.Executors {
		if prev, ok := cur.Slot(e); !ok || prev != s {
			moved++
		}
	}
	return moved
}
