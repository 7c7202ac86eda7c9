package scheduler

// The multi-resource side of the scheduling input: per-node usable-
// capacity constraints and per-executor demand estimates. Algorithm 1
// only reads the CPU dimension; the arena contenders (rstorm, hetero)
// pack against all three.

import (
	"fmt"

	"tstorm/internal/cluster"
)

// Constraints bounds how much of each node resource the scheduler may
// commit. Every fraction is in [0,1], and 0 selects full capacity (1.0)
// — the single convention shared by validation, documentation, and
// defaults. CPUFraction subsumes the old scalar Input.CapacityFraction:
// it scales each node's usable CPU capacity, the paper's advice to set
// C_k below physical capacity.
type Constraints struct {
	// CPUFraction scales node CPU capacity (CapacityMHz) to the usable
	// C_k. 0 selects full capacity.
	CPUFraction float64
	// MemFraction scales node memory (MemMB). 0 selects full capacity.
	MemFraction float64
	// NetFraction scales node network bandwidth (NetMBps). 0 selects
	// full capacity.
	NetFraction float64
}

// fraction normalizes one constraint fraction: 0 selects full capacity.
func fraction(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// Validate checks every fraction against the shared convention.
func (c Constraints) Validate() error {
	for _, dim := range []struct {
		name string
		f    float64
	}{{"cpu", c.CPUFraction}, {"memory", c.MemFraction}, {"network", c.NetFraction}} {
		if dim.f < 0 || dim.f > 1 {
			return fmt.Errorf("scheduler: %s fraction %v out of [0,1] (0 selects full capacity)", dim.name, dim.f)
		}
	}
	return nil
}

// CPULimitMHz is the usable CPU capacity of the node (the paper's C_k).
func (c Constraints) CPULimitMHz(n cluster.Node) float64 {
	return n.CapacityMHz() * fraction(c.CPUFraction)
}

// MemLimitMB is the usable memory of the node.
func (c Constraints) MemLimitMB(n cluster.Node) float64 {
	return float64(n.MemMB) * fraction(c.MemFraction)
}

// NetLimitMBps is the usable network bandwidth of the node.
func (c Constraints) NetLimitMBps(n cluster.Node) float64 {
	return n.NetMBps * fraction(c.NetFraction)
}

// Demand is one executor's estimated multi-resource requirement.
type Demand struct {
	// CPUMHz is the smoothed CPU workload, the paper's l_i.
	CPUMHz float64
	// MemMB is the estimated memory footprint.
	MemMB float64
	// NetMBps is the estimated network transfer volume, derived from the
	// executor's total traffic rate.
	NetMBps float64
}

// DefaultBytesPerTuple approximates the wire size of one encoded tuple:
// it converts traffic rates (tuples/s) into bandwidth demand (MB/s).
const DefaultBytesPerTuple = 256.0

// DefaultBaselineMemMB is the per-executor memory floor: queues, routing
// state, and component state make even an idle executor non-free.
const DefaultBaselineMemMB = 64.0
