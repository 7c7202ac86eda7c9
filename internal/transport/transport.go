// Package transport models how tuples move between executors: the hop
// classification (intra-worker, inter-process, inter-node) whose costs
// motivate traffic-aware scheduling, the NIC bandwidth queue, and the
// per-slot dispatcher T-Storm adds to route messages to old- or
// new-generation workers by assignment ID during re-assignment (§IV-D).
package transport

import (
	"fmt"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/sim"
)

// HopKind classifies the path between two executors.
type HopKind int

// Hop kinds, cheapest first.
const (
	// HopLocal is a hand-off between executors in the same worker
	// process: an in-memory queue transfer.
	HopLocal HopKind = iota + 1
	// HopInterProcess crosses worker processes on the same node:
	// serialization plus a loopback round.
	HopInterProcess
	// HopInterNode crosses machines: serialization, NIC transmission and
	// network latency.
	HopInterNode
)

// String names the hop kind.
func (k HopKind) String() string {
	switch k {
	case HopLocal:
		return "local"
	case HopInterProcess:
		return "inter-process"
	case HopInterNode:
		return "inter-node"
	default:
		return fmt.Sprintf("HopKind(%d)", int(k))
	}
}

// Classify determines the hop kind between two slots.
func Classify(src, dst cluster.SlotID) HopKind {
	if src == dst {
		return HopLocal
	}
	if src.Node == dst.Node {
		return HopInterProcess
	}
	return HopInterNode
}

// CostModel holds the latency/bandwidth/CPU parameters of the simulated
// cluster fabric. All fields must be non-negative.
type CostModel struct {
	// LocalDelay is the intra-worker queue hand-off latency.
	LocalDelay time.Duration
	// LoopbackDelay is the same-node inter-process message latency
	// (loopback TCP round through the kernel).
	LoopbackDelay time.Duration
	// NetworkDelay is the inter-node propagation + protocol-stack latency,
	// excluding transmission time.
	NetworkDelay time.Duration
	// BandwidthBps is the NIC line rate in bits per second.
	BandwidthBps float64
	// SerializeCyclesPerByte is the CPU cost (in MHz·µs ≡ cycles) charged
	// per byte to serialize or deserialize a tuple crossing a process
	// boundary.
	SerializeCyclesPerByte float64
	// ContextSwitchPenalty is the fractional slowdown added per extra
	// active worker process on a node beyond the first (Observation 1
	// attributes part of the spread-out cost to context switching).
	ContextSwitchPenalty float64
}

// DefaultCostModel matches the paper's testbed: 1 Gbps Ethernet between
// IBM blade servers, with latencies typical of Storm 0.8's ZeroMQ
// transport (in-memory hand-off ≪ loopback IPC < LAN hop).
func DefaultCostModel() CostModel {
	return CostModel{
		LocalDelay:             15 * time.Microsecond,
		LoopbackDelay:          80 * time.Microsecond,
		NetworkDelay:           150 * time.Microsecond,
		BandwidthBps:           1e9,
		SerializeCyclesPerByte: 8,
		ContextSwitchPenalty:   0.06,
	}
}

// Validate checks the model's parameters.
func (m CostModel) Validate() error {
	if m.LocalDelay < 0 || m.LoopbackDelay < 0 || m.NetworkDelay < 0 {
		return fmt.Errorf("transport: negative delay in cost model")
	}
	if m.BandwidthBps <= 0 {
		return fmt.Errorf("transport: non-positive bandwidth")
	}
	if m.SerializeCyclesPerByte < 0 || m.ContextSwitchPenalty < 0 {
		return fmt.Errorf("transport: negative CPU cost parameter")
	}
	return nil
}

// TransmissionTime returns the time to push size bytes through the NIC.
func (m CostModel) TransmissionTime(size int) time.Duration {
	sec := float64(size) * 8 / m.BandwidthBps
	return time.Duration(sec * float64(time.Second))
}

// SerializeCycles returns the CPU cycles charged on each side of a
// process-crossing hop for a tuple of the given size.
func (m CostModel) SerializeCycles(size int) float64 {
	return m.SerializeCyclesPerByte * float64(size)
}

// NIC models one node's egress port as a FIFO: transmissions serialize at
// line rate, so concurrent senders on a node queue behind each other.
type NIC struct {
	model    CostModel
	nextFree sim.Time
	sentMsgs int64
}

// NewNIC returns an idle NIC using the given cost model.
func NewNIC(model CostModel) *NIC { return &NIC{model: model} }

// Send enqueues a message of size bytes at instant now and returns the
// instant the last bit leaves the wire (propagation delay not included).
func (n *NIC) Send(now sim.Time, size int) sim.Time {
	start := now
	if n.nextFree > start {
		start = n.nextFree
	}
	done := start.Add(n.model.TransmissionTime(size))
	n.nextFree = done
	n.sentMsgs++
	return done
}

// FreeAt reports when the NIC finishes its current transmissions (now or
// earlier means idle).
func (n *NIC) FreeAt() sim.Time { return n.nextFree }

// MessagesSent reports the cumulative messages transmitted.
func (n *NIC) MessagesSent() int64 { return n.sentMsgs }

// Dispatcher is T-Storm's per-slot message router. Workers register under
// the assignment ID they were started for; inbound messages carry the
// sender's assignment ID and are delivered to the matching generation, so
// old-generation tuples finish on old workers while new-generation tuples
// flow to their replacements.
type Dispatcher struct {
	byAssign map[int64]any
	current  int64
	hasCur   bool
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{byAssign: make(map[int64]any)}
}

// Register binds a worker (opaque to this package) to an assignment ID.
// The most recently registered assignment becomes the current one.
func (d *Dispatcher) Register(assignID int64, worker any) {
	d.byAssign[assignID] = worker
	if !d.hasCur || assignID >= d.current {
		d.current = assignID
		d.hasCur = true
	}
}

// Unregister removes the worker bound to assignID.
func (d *Dispatcher) Unregister(assignID int64) {
	delete(d.byAssign, assignID)
	if d.current == assignID {
		d.hasCur = false
		for id := range d.byAssign {
			if !d.hasCur || id > d.current {
				d.current = id
				d.hasCur = true
			}
		}
	}
}

// Route returns the worker registered for assignID; if none, it falls back
// to the current (newest) worker, mirroring the paper's dispatcher which
// only needs to distinguish generations that actually co-exist.
func (d *Dispatcher) Route(assignID int64) (any, bool) {
	if w, ok := d.byAssign[assignID]; ok {
		return w, true
	}
	if d.hasCur {
		return d.byAssign[d.current], true
	}
	return nil, false
}
