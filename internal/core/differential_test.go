package core

import (
	"reflect"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/scheduler"
	"tstorm/internal/scheduler/schedtest"
)

// runBoth schedules one generated case with the kernel-backed Schedule and
// with referenceSchedule, probe on or off, and fails on any difference in
// error, assignment, Stats or decision report. It returns the kernel's
// side for further checks (nil assignment when both sides errored).
func runBoth(t *testing.T, c schedtest.Case, probed bool) (*cluster.Assignment, Stats, *decision.Report) {
	t.Helper()
	run := func(schedule func(*TrafficAware, *scheduler.Input) (*cluster.Assignment, error)) (*cluster.Assignment, Stats, *decision.Report, error) {
		in := *c.Input
		if probed {
			in.Probe = decision.NewBuilder()
		}
		ta := &TrafficAware{Gamma: c.Gamma, DisableTrafficOrder: c.DisableTrafficOrder}
		a, err := schedule(ta, &in)
		var rep *decision.Report
		if probed {
			rep = in.Probe.Report()
			rep.Start, rep.Duration = time.Time{}, 0
		}
		return a, ta.LastStats, rep, err
	}
	got, gotStats, gotRep, gotErr := run((*TrafficAware).Schedule)
	want, wantStats, wantRep, wantErr := run(referenceSchedule)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error = %v, reference error = %v", gotErr, wantErr)
	}
	if gotStats != wantStats {
		t.Fatalf("LastStats = %+v, reference %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("decision reports differ:\n got %+v\nwant %+v", gotRep, wantRep)
	}
	if gotErr != nil {
		return nil, gotStats, gotRep
	}
	if !got.Equal(want) {
		t.Fatalf("assignments differ:\n got %v\nwant %v", got.Executors, want.Executors)
	}
	return got, gotStats, gotRep
}

// TestScheduleMatchesReference is the seeded differential test: random
// inputs of every shape the generator knows, each scheduled with the probe
// off and on.
func TestScheduleMatchesReference(t *testing.T) {
	relaxed := 0
	for seed := int64(1); seed <= 300; seed++ {
		c, err := schedtest.Generate(schedtest.Rand(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, stats, _ := runBoth(t, c, false)
		runBoth(t, c, true)
		if stats.Relaxations > 0 {
			relaxed++
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
	if relaxed < 20 {
		t.Fatalf("only %d of 300 inputs needed a relaxation: the generator no longer reaches that path", relaxed)
	}
}

// checkConstraints verifies Algorithm 1's three per-node constraints on a
// finished round: never two slots of one topology on a node nor two
// topologies in a slot, and on every node no placement was flagged relaxed
// for, load within C_k and executor count within γ·Ne/K.
func checkConstraints(t *testing.T, in *scheduler.Input, a *cluster.Assignment, rep *decision.Report) {
	t.Helper()
	type nodeTopo struct {
		node cluster.NodeID
		topo string
	}
	slotOf := make(map[nodeTopo]cluster.SlotID)
	owner := make(map[cluster.SlotID]string)
	load := make(map[cluster.NodeID]float64)
	count := make(map[cluster.NodeID]int)
	overCount := make(map[cluster.NodeID]bool)
	overLoad := make(map[cluster.NodeID]bool)
	for _, p := range rep.Placements {
		s, ok := a.Slot(p.Executor)
		if !ok || s != p.Slot {
			t.Fatalf("%v: report says %v, assignment says %v (%v)", p.Executor, p.Slot, s, ok)
		}
		if in.Occupied[s] {
			t.Fatalf("%v placed on occupied slot %v", p.Executor, s)
		}
		key := nodeTopo{s.Node, p.Executor.Topology}
		if prev, seen := slotOf[key]; seen && prev != s {
			t.Fatalf("topology %s uses slots %v and %v on one node", key.topo, prev, s)
		}
		slotOf[key] = s
		if o, taken := owner[s]; taken && o != p.Executor.Topology {
			t.Fatalf("slot %v shared by %s and %s", s, o, p.Executor.Topology)
		}
		owner[s] = p.Executor.Topology
		load[s.Node] += p.Load
		count[s.Node]++
		overCount[s.Node] = overCount[s.Node] || p.RelaxedCount
		overLoad[s.Node] = overLoad[s.Node] || p.RelaxedCapacity
	}
	if len(rep.Placements) != in.NumExecutors() {
		t.Fatalf("%d placements for %d executors", len(rep.Placements), in.NumExecutors())
	}
	for n, c := range count {
		node, _ := in.Cluster.Node(n)
		if limit := in.Constraints.CPULimitMHz(node); !overLoad[n] && load[n] > limit*(1+1e-9) {
			t.Fatalf("node %s carries %v MHz of %v with no capacity relaxation flagged", n, load[n], limit)
		}
		if !overCount[n] && float64(c) > rep.CountCap {
			t.Fatalf("node %s holds %d executors, cap %v, with no count relaxation flagged", n, c, rep.CountCap)
		}
	}
}

// FuzzSchedule drives the differential comparison from fuzz bytes and
// checks the per-node constraints on what comes out.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("traffic-aware online scheduling in storm"))
	f.Add([]byte{0, 3, 0, 1, 2, 0, 1, 244, 0, 2, 0, 5, 0, 0, 0, 3, 0, 2, 0, 9, 0, 9, 0, 3, 255, 255, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := schedtest.Generate(schedtest.Bytes(data))
		if err != nil {
			t.Skip(err)
		}
		runBoth(t, c, false)
		if a, _, rep := runBoth(t, c, true); a != nil {
			checkConstraints(t, c.Input, a, rep)
		}
	})
}
