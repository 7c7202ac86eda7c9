package loaddb

import (
	"sort"
	"testing"
	"testing/quick"

	"tstorm/internal/predictor"
	"tstorm/internal/topology"
)

func exec(topo, comp string, i int) topology.ExecutorID {
	return topology.ExecutorID{Topology: topo, Component: comp, Index: i}
}

func TestExecutorLoadEWMA(t *testing.T) {
	db := New(0.5)
	e := exec("t", "bolt", 0)
	if snapLoad(db, e) != 0 {
		t.Fatal("unknown executor load not 0")
	}
	db.UpdateExecutorLoad(e, 100)
	db.UpdateExecutorLoad(e, 200)
	if got := snapLoad(db, e); got != 150 {
		t.Fatalf("load = %v, want 150 (EWMA α=0.5)", got)
	}
}

func TestTrafficEWMA(t *testing.T) {
	db := New(0.5)
	a, b := exec("t", "s", 0), exec("t", "b", 0)
	if snapTraffic(db, a, b) != 0 {
		t.Fatal("unknown traffic not 0")
	}
	db.UpdateTraffic(a, b, 10)
	db.UpdateTraffic(a, b, 0) // pair went quiet: estimate decays
	if got := snapTraffic(db, a, b); got != 5 {
		t.Fatalf("traffic = %v, want 5", got)
	}
	// Directionality.
	if snapTraffic(db, b, a) != 0 {
		t.Fatal("reverse direction contaminated")
	}
}

func TestHasData(t *testing.T) {
	db := New(0.5)
	if db.HasData() {
		t.Fatal("fresh DB has data")
	}
	db.UpdateExecutorLoad(exec("t", "s", 0), 1)
	if !db.HasData() {
		t.Fatal("DB with samples reports no data")
	}
}

func TestSnapshotSortedAndIsolated(t *testing.T) {
	db := New(0.5)
	a, b, c := exec("t", "a", 0), exec("t", "b", 0), exec("t", "c", 0)
	db.UpdateTraffic(c, a, 3)
	db.UpdateTraffic(a, b, 1)
	db.UpdateTraffic(b, c, 2)
	db.UpdateExecutorLoad(a, 50)
	s := db.Snapshot()
	if len(s.Flows) != 3 || len(s.ExecLoad) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if !sort.SliceIsSorted(s.Flows, func(i, j int) bool {
		if s.Flows[i].From != s.Flows[j].From {
			return s.Flows[i].From.Less(s.Flows[j].From)
		}
		return s.Flows[i].To.Less(s.Flows[j].To)
	}) {
		t.Fatalf("flows not sorted: %+v", s.Flows)
	}
	// Mutating the snapshot does not affect the DB.
	s.ExecLoad[a] = 999
	if snapLoad(db, a) != 50 {
		t.Fatal("snapshot aliases DB")
	}
}

func TestTotalTraffic(t *testing.T) {
	db := New(1.0) // α=1: estimates stay at first sample
	a, b, c := exec("t", "a", 0), exec("t", "b", 0), exec("t", "c", 0)
	db.UpdateTraffic(a, b, 10)
	db.UpdateTraffic(b, c, 4)
	tot := db.Snapshot().TotalTraffic()
	if tot[a] != 10 || tot[b] != 14 || tot[c] != 4 {
		t.Fatalf("TotalTraffic = %v", tot)
	}
}

func TestForget(t *testing.T) {
	db := New(0.5)
	db.UpdateExecutorLoad(exec("keep", "s", 0), 1)
	db.UpdateExecutorLoad(exec("drop", "s", 0), 1)
	db.UpdateTraffic(exec("drop", "s", 0), exec("keep", "s", 0), 1)
	db.UpdateTraffic(exec("keep", "s", 0), exec("keep", "b", 0), 1)
	db.Forget("drop")
	s := db.Snapshot()
	if len(s.ExecLoad) != 1 || len(s.Flows) != 1 {
		t.Fatalf("after Forget: %+v", s)
	}
	if snapLoad(db, exec("drop", "s", 0)) != 0 {
		t.Fatal("forgotten executor still has load")
	}
}

// Property: estimates always lie within [min, max] of the samples seen.
func TestPropertyEstimateBounded(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		db := New(0.5)
		e := exec("t", "x", 0)
		lo, hi := float64(samples[0]), float64(samples[0])
		for _, s := range samples {
			v := float64(s)
			db.UpdateExecutorLoad(e, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		got := snapLoad(db, e)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCustomEstimatorIsUsed(t *testing.T) {
	// A Holt-based DB extrapolates a ramp past its last sample; the EWMA
	// DB lags it — the §IV-B pluggable-estimator extension point.
	holt := NewWithEstimator(predictor.HoltFactory(0.8, 0.5))
	ewma := New(0.5)
	e := exec("t", "s", 0)
	for v := 100.0; v <= 500; v += 100 {
		holt.UpdateExecutorLoad(e, v)
		ewma.UpdateExecutorLoad(e, v)
	}
	if snapLoad(holt, e) <= 500 {
		t.Fatalf("Holt DB = %v, want forecast beyond 500", snapLoad(holt, e))
	}
	if snapLoad(ewma, e) >= 500 {
		t.Fatalf("EWMA DB = %v, want lag below 500", snapLoad(ewma, e))
	}
}

func TestApplyWindowMatchesPerSampleUpdates(t *testing.T) {
	// Two windows fed in batch must leave the DB in exactly the state the
	// per-sample update path produces — the live monitor depends on it.
	batch := New(0.5)
	single := New(0.5)
	windows := []struct {
		loads map[topology.ExecutorID]float64
		flows map[FlowKey]float64
	}{
		{
			loads: map[topology.ExecutorID]float64{exec("t", "s", 0): 100, exec("t", "b", 0): 240},
			flows: map[FlowKey]float64{{From: exec("t", "s", 0), To: exec("t", "b", 0)}: 500},
		},
		{
			loads: map[topology.ExecutorID]float64{exec("t", "s", 0): 200, exec("t", "b", 1): 80},
			flows: map[FlowKey]float64{
				{From: exec("t", "s", 0), To: exec("t", "b", 0)}: 300,
				{From: exec("t", "s", 0), To: exec("t", "b", 1)}: 100,
			},
		},
	}
	for _, w := range windows {
		batch.ApplyWindow(w.loads, w.flows)
		for e, v := range w.loads {
			single.UpdateExecutorLoad(e, v)
		}
		for k, v := range w.flows {
			single.UpdateTraffic(k.From, k.To, v)
		}
	}
	a, b := batch.Snapshot(), single.Snapshot()
	if len(a.ExecLoad) != len(b.ExecLoad) || len(a.Flows) != len(b.Flows) {
		t.Fatalf("snapshot shapes differ: %d/%d loads, %d/%d flows",
			len(a.ExecLoad), len(b.ExecLoad), len(a.Flows), len(b.Flows))
	}
	for e, v := range b.ExecLoad {
		if a.ExecLoad[e] != v {
			t.Fatalf("load %v: batch %v, single %v", e, a.ExecLoad[e], v)
		}
	}
	for i, f := range b.Flows {
		if a.Flows[i] != f {
			t.Fatalf("flow %d: batch %+v, single %+v", i, a.Flows[i], f)
		}
	}
}

// snapLoad and snapTraffic read one estimate through a snapshot (0 when
// unknown).
func snapLoad(db *DB, e topology.ExecutorID) float64 { return db.Snapshot().ExecLoad[e] }

func snapTraffic(db *DB, from, to topology.ExecutorID) float64 {
	for _, f := range db.Snapshot().Flows {
		if f.From == from && f.To == to {
			return f.Rate
		}
	}
	return 0
}
