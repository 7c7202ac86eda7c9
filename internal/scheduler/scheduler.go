// Package scheduler defines the scheduling framework — the input model
// (topologies, load snapshot, cluster, occupied slots), the Algorithm
// interface, and a registry enabling hot-swapping by name — plus the
// baseline schedulers the paper compares against: Storm's default
// round-robin scheduler, T-Storm's modified initial scheduler, and the
// offline/online schedulers of Aniello et al. (DEBS'13).
//
// The paper's own contribution, the traffic-aware online algorithm
// (Algorithm 1), lives in internal/core.
package scheduler

import (
	"fmt"
	"sort"
	"sync"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// Input carries everything a scheduling algorithm may use.
type Input struct {
	// Topologies are the applications being (re-)scheduled.
	Topologies []*topology.Topology
	// Cluster is the physical cluster.
	Cluster *cluster.Cluster
	// Load is the smoothed runtime load snapshot (may be empty for
	// offline algorithms or initial scheduling). Each algorithm derives
	// what it needs from it, the resource-aware ones their demands.
	Load *loaddb.Snapshot
	// Occupied marks slots unavailable because another topology (not in
	// Topologies) owns them.
	Occupied map[cluster.SlotID]bool
	// Constraints bounds per-node resource use. All fractions are in
	// [0,1] and 0 selects full capacity; CPUFraction is the paper's
	// advice to set C_k below physical capacity (the old scalar
	// CapacityFraction field).
	Constraints Constraints
	// Probe, when non-nil, receives the run's placement decisions —
	// which slots were considered for each executor, with what gain, and
	// which constraint rejected the losers. Algorithms must behave
	// identically with and without it; each Schedule call owns its own
	// Builder, so recording never synchronizes with anything.
	Probe *decision.Builder
}

// NewInput assembles a scheduling Input from its parts — the single
// construction path shared by the simulated schedule generator
// (internal/core) and the live runtime's generator (internal/live), so
// both backends hand algorithms inputs of identical shape. load may be
// nil for offline/initial scheduling; capacityFraction populates
// Constraints.CPUFraction (0 selects full capacity).
func NewInput(topos []*topology.Topology, cl *cluster.Cluster, load *loaddb.Snapshot, capacityFraction float64) *Input {
	return &Input{
		Topologies:  append([]*topology.Topology(nil), topos...),
		Cluster:     cl,
		Load:        load,
		Constraints: Constraints{CPUFraction: capacityFraction},
		Occupied:    make(map[cluster.SlotID]bool),
	}
}

// OccupyNode marks every slot of the named node occupied — how generators
// fence off failed (or reserved) nodes from the algorithms.
func (in *Input) OccupyNode(id cluster.NodeID) {
	node, ok := in.Cluster.Node(id)
	if !ok {
		return
	}
	if in.Occupied == nil {
		in.Occupied = make(map[cluster.SlotID]bool)
	}
	for p := 0; p < node.NumSlots; p++ {
		in.Occupied[cluster.SlotID{Node: id, Port: cluster.BasePort + p}] = true
	}
}

// NumExecutors is the paper's N_e: executors across all input topologies.
func (in *Input) NumExecutors() int {
	n := 0
	for _, t := range in.Topologies {
		n += t.NumExecutors()
	}
	return n
}

// FreeSlots returns all slots not marked occupied, in deterministic
// node-major order.
func (in *Input) FreeSlots() []cluster.SlotID {
	all := in.Cluster.Slots()
	out := all[:0]
	for _, s := range all {
		if !in.Occupied[s] {
			out = append(out, s)
		}
	}
	return out
}

// InterleavedFreeSlots returns the free slots ordered port-major (all
// nodes' first ports, then all second ports, ...), the order Storm's even
// scheduler effectively fills slots in.
func (in *Input) InterleavedFreeSlots() []cluster.SlotID {
	free := in.FreeSlots()
	sort.SliceStable(free, func(i, j int) bool {
		if free[i].Port != free[j].Port {
			return free[i].Port < free[j].Port
		}
		return free[i].Node < free[j].Node
	})
	return free
}

// Validate checks the input.
func (in *Input) Validate() error {
	if len(in.Topologies) == 0 {
		return fmt.Errorf("scheduler: no topologies")
	}
	if in.Cluster == nil {
		return fmt.Errorf("scheduler: no cluster")
	}
	if err := in.Constraints.Validate(); err != nil {
		return err
	}
	return nil
}

// Algorithm computes an executor-to-slot assignment for every executor of
// every input topology.
type Algorithm interface {
	Name() string
	Schedule(in *Input) (*cluster.Assignment, error)
}

// Registry maps algorithm names to instances, enabling hot-swap by name.
// It is safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	algos map[string]Algorithm
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{algos: make(map[string]Algorithm)}
}

// Register adds or replaces an algorithm under its Name.
func (r *Registry) Register(a Algorithm) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.algos[a.Name()] = a
}

// Get looks an algorithm up by name.
func (r *Registry) Get(name string) (Algorithm, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.algos[name]
	return a, ok
}

// Names lists registered algorithm names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.algos))
	for n := range r.algos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterBuiltins registers every algorithm this package defines under
// its canonical name — the baselines plus the arena contenders — so both
// schedule generators (sim and live) expose the full field for hot-swap
// and the arena bench can rank them all. Algorithm 1 itself lives in
// internal/core (above this package) and is registered by its caller.
func RegisterBuiltins(r *Registry) {
	for _, a := range []Algorithm{
		RoundRobin{}, TStormInitial{}, AnielloOffline{}, AnielloOnline{},
		LoadBalanced{}, RStorm{}, Hetero{},
	} {
		r.Register(a)
	}
}

// assignRoundRobin distributes executors over the given worker slots in
// round-robin order.
func assignRoundRobin(a *cluster.Assignment, execs []topology.ExecutorID, slots []cluster.SlotID) {
	for i, e := range execs {
		a.Assign(e, slots[i%len(slots)])
	}
}

// recordDecisions feeds the input's probe, if any, from a finished
// assignment — the uniform path for algorithms that place by structural
// rules rather than per-slot constraint evaluation (the baselines).
// Rank is declaration order and Options stays empty; Algorithm 1 in
// internal/core records its richer per-candidate trail itself.
func recordDecisions(in *Input, algorithm string, a *cluster.Assignment) {
	p := in.Probe
	if p == nil || a == nil || in.Cluster == nil {
		return
	}
	load := in.Load
	if load == nil {
		load = &loaddb.Snapshot{}
	}
	p.Begin(algorithm, in.NumExecutors(), in.Cluster.NumNodes())
	total := load.TotalTraffic()
	rank := 0
	for _, top := range in.Topologies {
		for _, e := range top.Executors() {
			if s, ok := a.Slot(e); ok {
				p.Place(decision.Placement{
					Executor: e,
					Rank:     rank,
					Traffic:  total[e],
					Load:     load.ExecLoad[e],
					Slot:     s,
				})
			}
			rank++
		}
	}
	p.Finish(a, load)
}
