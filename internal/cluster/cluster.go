// Package cluster models the physical layer of a Storm deployment: worker
// nodes with CPU capacity, slots (worker-process ports) on each node, and
// executor-to-slot assignments, including the assignment diffing that
// supervisors use to decide which workers to restart.
package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"tstorm/internal/topology"
)

// NodeID names a worker node.
type NodeID string

// DefaultMemMB is the node memory assumed when a Node does not specify
// one — the paper's blades carry 2 GB.
const DefaultMemMB = 2048

// DefaultNetMBps is the node network bandwidth assumed when a Node does
// not specify one: 125 MB/s, i.e. the gigabit Ethernet of the paper's
// testbed.
const DefaultNetMBps = 125.0

// Node is one worker node (physical machine).
type Node struct {
	ID NodeID
	// Cores is the number of CPU cores.
	Cores int
	// CoreMHz is the clock speed of one core.
	CoreMHz float64
	// NumSlots is the number of configured slots (worker processes that
	// may run here); the cluster operator typically sets it to Cores.
	NumSlots int
	// MemMB is the node's physical memory (0 = DefaultMemMB). Worker
	// processes are JVMs with a substantial footprint; overcommitting
	// memory slows a node down (the consolidation effect of §V).
	MemMB int
	// NetMBps is the node's network bandwidth in megabytes per second
	// (0 = DefaultNetMBps). Resource-aware schedulers (R-Storm) treat it
	// as a third capacity dimension next to CPU and memory.
	NetMBps float64
}

// CapacityMHz is the node's total CPU capacity, the paper's C_k.
func (n Node) CapacityMHz() float64 { return float64(n.Cores) * n.CoreMHz }

// BasePort is the first slot port on every node, as in Storm's default
// supervisor.slots.ports (6700, 6701, ...).
const BasePort = 6700

// SlotID identifies a slot: a (node, port) pair.
type SlotID struct {
	Node NodeID `json:"node"`
	Port int    `json:"port"`
}

// String renders "node:port".
func (s SlotID) String() string { return fmt.Sprintf("%s:%d", s.Node, s.Port) }

// Less orders slots by (node, port).
func (s SlotID) Less(o SlotID) bool {
	if s.Node != o.Node {
		return s.Node < o.Node
	}
	return s.Port < o.Port
}

// Cluster is a fixed set of worker nodes.
type Cluster struct {
	nodes []Node
	byID  map[NodeID]int
}

// New validates the node list and returns a Cluster.
func New(nodes []Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	c := &Cluster{nodes: append([]Node(nil), nodes...), byID: make(map[NodeID]int, len(nodes))}
	for i, n := range c.nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node %d has empty ID", i)
		}
		if _, dup := c.byID[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		if n.Cores <= 0 || n.CoreMHz <= 0 || n.NumSlots <= 0 {
			return nil, fmt.Errorf("cluster: node %q has non-positive cores/MHz/slots", n.ID)
		}
		if n.MemMB < 0 {
			return nil, fmt.Errorf("cluster: node %q has negative memory", n.ID)
		}
		if n.MemMB == 0 {
			c.nodes[i].MemMB = DefaultMemMB
		}
		if n.NetMBps < 0 {
			return nil, fmt.Errorf("cluster: node %q has negative network bandwidth", n.ID)
		}
		if n.NetMBps == 0 {
			c.nodes[i].NetMBps = DefaultNetMBps
		}
		c.byID[n.ID] = i
	}
	return c, nil
}

// Uniform builds a cluster of n identical nodes named node01..nodeNN.
func Uniform(n, cores int, coreMHz float64, slots int) (*Cluster, error) {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID:       NodeID(fmt.Sprintf("node%02d", i+1)),
			Cores:    cores,
			CoreMHz:  coreMHz,
			NumSlots: slots,
		}
	}
	return New(nodes)
}

// Nodes returns the nodes in declaration order (copy).
func (c *Cluster) Nodes() []Node {
	out := make([]Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// NumNodes returns the node count (the paper's K).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns the named node.
func (c *Cluster) Node(id NodeID) (Node, bool) {
	i, ok := c.byID[id]
	if !ok {
		return Node{}, false
	}
	return c.nodes[i], true
}

// Slots enumerates every slot in deterministic order: nodes in declaration
// order, ports ascending from BasePort. This is the paper's slot set S.
func (c *Cluster) Slots() []SlotID {
	out := make([]SlotID, 0, c.NumSlots())
	for _, n := range c.nodes {
		for p := 0; p < n.NumSlots; p++ {
			out = append(out, SlotID{Node: n.ID, Port: BasePort + p})
		}
	}
	return out
}

// NumSlots returns the total slot count (the paper's N_s).
func (c *Cluster) NumSlots() int {
	n := 0
	for _, nd := range c.nodes {
		n += nd.NumSlots
	}
	return n
}

// Assignment maps executors to slots. The ID is the generation timestamp
// in virtual nanoseconds; T-Storm uses it to tag messages so the per-slot
// dispatcher can separate old-generation and new-generation traffic.
type Assignment struct {
	ID        int64
	Executors map[topology.ExecutorID]SlotID
}

// NewAssignment returns an empty assignment with the given ID.
func NewAssignment(id int64) *Assignment {
	return &Assignment{ID: id, Executors: make(map[topology.ExecutorID]SlotID)}
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	out := NewAssignment(a.ID)
	for e, s := range a.Executors {
		out.Executors[e] = s
	}
	return out
}

// Slot returns the slot hosting the given executor.
func (a *Assignment) Slot(e topology.ExecutorID) (SlotID, bool) {
	s, ok := a.Executors[e]
	return s, ok
}

// Assign places executor e on slot s, replacing any previous placement.
func (a *Assignment) Assign(e topology.ExecutorID, s SlotID) { a.Executors[e] = s }

// SlotExecutors groups the assignment by slot; executor lists are sorted.
func (a *Assignment) SlotExecutors() map[SlotID][]topology.ExecutorID {
	out := make(map[SlotID][]topology.ExecutorID)
	for e, s := range a.Executors {
		out[s] = append(out[s], e)
	}
	for _, execs := range out {
		sort.Slice(execs, func(i, j int) bool { return execs[i].Less(execs[j]) })
	}
	return out
}

// UsedSlots returns the distinct slots in use, sorted.
func (a *Assignment) UsedSlots() []SlotID {
	seen := make(map[SlotID]bool)
	for _, s := range a.Executors {
		seen[s] = true
	}
	out := make([]SlotID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// UsedNodes returns the distinct nodes in use, sorted.
func (a *Assignment) UsedNodes() []NodeID {
	seen := make(map[NodeID]bool)
	for _, s := range a.Executors {
		seen[s.Node] = true
	}
	out := make([]NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, NodeID(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumUsedNodes counts distinct nodes in use.
func (a *Assignment) NumUsedNodes() int { return len(a.UsedNodes()) }

// Equal reports whether two assignments place every executor identically
// (IDs are ignored).
func (a *Assignment) Equal(b *Assignment) bool {
	if len(a.Executors) != len(b.Executors) {
		return false
	}
	for e, s := range a.Executors {
		if bs, ok := b.Executors[e]; !ok || bs != s {
			return false
		}
	}
	return true
}

// assignmentJSON is the wire form used for coordination-store publication.
type assignmentJSON struct {
	ID      int64       `json:"id"`
	Entries []entryJSON `json:"entries"`
}

type entryJSON struct {
	Exec topology.ExecutorID `json:"exec"`
	Slot SlotID              `json:"slot"`
}

// MarshalJSON encodes the assignment deterministically (entries sorted by
// executor).
func (a *Assignment) MarshalJSON() ([]byte, error) {
	execs := make([]topology.ExecutorID, 0, len(a.Executors))
	for e := range a.Executors {
		execs = append(execs, e)
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].Less(execs[j]) })
	w := assignmentJSON{ID: a.ID, Entries: make([]entryJSON, len(execs))}
	for i, e := range execs {
		w.Entries[i] = entryJSON{Exec: e, Slot: a.Executors[e]}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form.
func (a *Assignment) UnmarshalJSON(data []byte) error {
	var w assignmentJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("cluster: bad assignment: %w", err)
	}
	a.ID = w.ID
	a.Executors = make(map[topology.ExecutorID]SlotID, len(w.Entries))
	for _, e := range w.Entries {
		a.Executors[e.Exec] = e.Slot
	}
	return nil
}
