package loaddb

// The map-backed database this package shipped before its dense flow
// list, kept verbatim (renamed refDB) as the oracle: the dense DB must
// produce the same snapshots, in the same order and float bits, after any
// sequence of writes and forgets.

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"tstorm/internal/predictor"
	"tstorm/internal/topology"
)

type refDB struct {
	mu      sync.Mutex
	factory predictor.Factory
	load    map[topology.ExecutorID]predictor.Estimator
	mem     map[topology.ExecutorID]predictor.Estimator
	flows   map[FlowKey]predictor.Estimator
}

func newRefDB(factory predictor.Factory) *refDB {
	return &refDB{
		factory: factory,
		load:    make(map[topology.ExecutorID]predictor.Estimator),
		mem:     make(map[topology.ExecutorID]predictor.Estimator),
		flows:   make(map[FlowKey]predictor.Estimator),
	}
}

func (db *refDB) UpdateExecutorLoad(e topology.ExecutorID, mhz float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	est := db.load[e]
	if est == nil {
		est = db.factory()
		db.load[e] = est
	}
	est.Update(mhz)
}

func (db *refDB) UpdateExecutorMemory(e topology.ExecutorID, mb float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	est := db.mem[e]
	if est == nil {
		est = db.factory()
		db.mem[e] = est
	}
	est.Update(mb)
}

func (db *refDB) UpdateTraffic(from, to topology.ExecutorID, rate float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	k := FlowKey{From: from, To: to}
	est := db.flows[k]
	if est == nil {
		est = db.factory()
		db.flows[k] = est
	}
	est.Update(rate)
}

func (db *refDB) ApplyWindow(loads map[topology.ExecutorID]float64, flows map[FlowKey]float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e, mhz := range loads {
		est := db.load[e]
		if est == nil {
			est = db.factory()
			db.load[e] = est
		}
		est.Update(mhz)
	}
	for k, rate := range flows {
		est := db.flows[k]
		if est == nil {
			est = db.factory()
			db.flows[k] = est
		}
		est.Update(rate)
	}
}

func (db *refDB) ApplyMemory(mem map[topology.ExecutorID]float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e, mb := range mem {
		est := db.mem[e]
		if est == nil {
			est = db.factory()
			db.mem[e] = est
		}
		est.Update(mb)
	}
}

func (db *refDB) Forget(topo string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e := range db.load {
		if e.Topology == topo {
			delete(db.load, e)
		}
	}
	for e := range db.mem {
		if e.Topology == topo {
			delete(db.mem, e)
		}
	}
	for k := range db.flows {
		if k.From.Topology == topo || k.To.Topology == topo {
			delete(db.flows, k)
		}
	}
}

func (db *refDB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{ExecLoad: make(map[topology.ExecutorID]float64, len(db.load))}
	for e, est := range db.load {
		s.ExecLoad[e] = est.Value()
	}
	if len(db.mem) > 0 {
		s.ExecMem = make(map[topology.ExecutorID]float64, len(db.mem))
		for e, est := range db.mem {
			s.ExecMem[e] = est.Value()
		}
	}
	s.Flows = make([]Flow, 0, len(db.flows))
	for k, est := range db.flows {
		s.Flows = append(s.Flows, Flow{From: k.From, To: k.To, Rate: est.Value()})
	}
	sort.Slice(s.Flows, func(i, j int) bool {
		if s.Flows[i].From != s.Flows[j].From {
			return s.Flows[i].From.Less(s.Flows[j].From)
		}
		return s.Flows[i].To.Less(s.Flows[j].To)
	})
	return s
}

// sameBits reports whether two value maps hold the same keys with the
// same float bits.
func sameBits(a, b map[topology.ExecutorID]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for e, v := range a {
		w, ok := b[e]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestSnapshotMatchesReference drives the dense DB and the reference
// through the same seeded random sequences of UpdateExecutorLoad,
// UpdateExecutorMemory, UpdateTraffic, ApplyWindow, ApplyMemory and
// Forget calls, and compares their snapshots after every step: the same
// loads and memory, and the same flows in the same order with the same
// float bits. Runs of steps that add no pair exercise the cached order.
func TestSnapshotMatchesReference(t *testing.T) {
	factories := []func() predictor.Factory{
		func() predictor.Factory { return predictor.EWMAFactory(0.5) },
		func() predictor.Factory { return predictor.EWMAFactory(0.3) },
		func() predictor.Factory { return predictor.HoltFactory(0.8, 0.5) },
	}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		f := factories[rng.IntN(len(factories))]
		db, ref := NewWithEstimator(f()), newRefDB(f())
		var pool []topology.ExecutorID
		for _, topo := range []string{"a", "b", "c"} {
			for _, comp := range []string{"s", "m", "t"} {
				for i := 0; i < 1+rng.IntN(4); i++ {
					pool = append(pool, exec(topo, comp, i))
				}
			}
		}
		// A narrow pool early on makes later steps mostly revisit pairs.
		width := 3
		pick := func() topology.ExecutorID { return pool[rng.IntN(min(width, len(pool)))] }
		rate := func() float64 { return float64(rng.IntN(1<<20)) / 7.3 }
		for step := 0; step < 200; step++ {
			if rng.IntN(10) == 0 {
				width += rng.IntN(6)
			}
			switch rng.IntN(7) {
			case 0:
				e, v := pick(), rate()
				db.UpdateExecutorLoad(e, v)
				ref.UpdateExecutorLoad(e, v)
			case 1:
				e, v := pick(), rate()
				db.UpdateExecutorMemory(e, v)
				ref.UpdateExecutorMemory(e, v)
			case 2, 3:
				from, to, v := pick(), pick(), rate()
				db.UpdateTraffic(from, to, v)
				ref.UpdateTraffic(from, to, v)
			case 4:
				loads := make(map[topology.ExecutorID]float64)
				flows := make(map[FlowKey]float64)
				for i := rng.IntN(6); i > 0; i-- {
					loads[pick()] = rate()
					flows[FlowKey{From: pick(), To: pick()}] = rate()
				}
				db.ApplyWindow(loads, flows)
				ref.ApplyWindow(loads, flows)
			case 5:
				mem := map[topology.ExecutorID]float64{pick(): rate()}
				db.ApplyMemory(mem)
				ref.ApplyMemory(mem)
			case 6:
				if rng.IntN(5) == 0 {
					topo := []string{"a", "b", "c"}[rng.IntN(3)]
					db.Forget(topo)
					ref.Forget(topo)
				}
			}
			got, want := db.Snapshot(), ref.Snapshot()
			if !sameBits(got.ExecLoad, want.ExecLoad) || !sameBits(got.ExecMem, want.ExecMem) {
				t.Fatalf("seed %d step %d: loads %v / memory %v, reference %v / %v",
					seed, step, got.ExecLoad, got.ExecMem, want.ExecLoad, want.ExecMem)
			}
			if !sameBits(db.ExecLoads(), want.ExecLoad) {
				t.Fatalf("seed %d step %d: ExecLoads differs from the reference's loads", seed, step)
			}
			if len(got.Flows) != len(want.Flows) {
				t.Fatalf("seed %d step %d: %d flows, reference %d", seed, step, len(got.Flows), len(want.Flows))
			}
			for i, g := range got.Flows {
				w := want.Flows[i]
				if g.From != w.From || g.To != w.To || math.Float64bits(g.Rate) != math.Float64bits(w.Rate) {
					t.Fatalf("seed %d step %d: flow %d = %+v, reference %+v", seed, step, i, g, w)
				}
			}
		}
	}
}
