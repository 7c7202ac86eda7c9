package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/scheduler/schedtest"
	"tstorm/internal/topology"
)

// runBoth schedules one generated case with the kernel-backed Schedule and
// with referenceSchedule, probe on or off, and fails on any difference in
// error, assignment or decision report (the report carries the relaxation
// count; the assignment fixes nodes used and inter-node traffic). It
// returns the kernel's side for further checks (nil assignment when both
// sides errored).
func runBoth(t *testing.T, c schedtest.Case, probed bool) (*cluster.Assignment, *decision.Report) {
	t.Helper()
	run := func(schedule func(*TrafficAware, *scheduler.Input) (*cluster.Assignment, error)) (*cluster.Assignment, *decision.Report, error) {
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
		return a, rep, err
	}
	got, gotRep, gotErr := run((*TrafficAware).Schedule)
	want, wantRep, wantErr := run(referenceSchedule)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error = %v, reference error = %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("decision reports differ:\n got %+v\nwant %+v", gotRep, wantRep)
	}
	if gotErr != nil {
		return nil, gotRep
	}
	if !got.Equal(want) {
		t.Fatalf("assignments differ:\n got %v\nwant %v", got.Executors, want.Executors)
	}
	if g, w := got.NumUsedNodes(), want.NumUsedNodes(); g != w {
		t.Fatalf("nodes used = %d, reference %d", g, w)
	}
	if g, w := InterNodeTraffic(got, c.Input.Load), InterNodeTraffic(want, c.Input.Load); g != w {
		t.Fatalf("inter-node traffic = %v, reference %v", g, w)
	}
	return got, gotRep
}

// TestScheduleMatchesReference is the seeded differential test: random
// inputs of every shape the generator knows, each scheduled with the probe
// off and on. The unprobed round places executors through the kernel's
// candidate pass, so the test also counts the inputs where that pass had
// to get something right: walk past a node that fits on count but not on
// CPU or slot, or break a tie between two candidate nodes.
func TestScheduleMatchesReference(t *testing.T) {
	relaxed, strict, walked, tied := 0, 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		c, err := schedtest.Generate(schedtest.Rand(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runBoth(t, c, false)
		_, rep := runBoth(t, c, true)
		if rep.Relaxations > 0 {
			relaxed++
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
		shape := candidateShape(c.Input.Load, rep)
		if shape.strict > 0 {
			strict++
		}
		if shape.walked > 0 {
			walked++
		}
		if shape.tied > 0 {
			tied++
		}
	}
	if relaxed < 20 {
		t.Fatalf("only %d of 300 inputs needed a relaxation: the generator no longer reaches that path", relaxed)
	}
	t.Logf("of 300 inputs: %d placed through the candidate pass, %d walked past a node full on CPU or slot only, %d broke a tie between candidate nodes", strict, walked, tied)
	if strict < 250 || walked < 150 || tied < 15 {
		t.Fatalf("candidate pass under-exercised: %d placed through it (floor 250), %d walked (floor 150), %d tied (floor 15)", strict, walked, tied)
	}
}

// TestScheduleMatchesReferenceAtScale holds the kernel to the reference on
// large consolidating rounds: two topologies, Ne = 2 000 on 100 nodes,
// γ = 1.8, integer rates as the bench's plan-sim input has them. With its
// uniform 50 MHz loads the count cap fills node after node, so the cursor
// moves the whole length of the cluster. With loads of 50–400 MHz the
// CPU limit binds first on many nodes, which the cursor must not skip, and
// executors return to the half-full nodes of their neighbours.
func TestScheduleMatchesReferenceAtScale(t *testing.T) {
	for _, tc := range []struct {
		name   string
		levels int // loads are 50 MHz × 1..levels
	}{{"uniform", 1}, {"mixed", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := consolidatingInput(2000, 100, tc.levels)
			if err != nil {
				t.Fatal(err)
			}
			c := schedtest.Case{Input: in, Gamma: 1.8}
			a, _ := runBoth(t, c, false)
			_, rep := runBoth(t, c, true)
			nodesUsed := a.NumUsedNodes()
			shape := candidateShape(in.Load, rep)
			t.Logf("%d of %d placed through the candidate pass, %d walked past a node full on CPU only; %d nodes used", shape.strict, len(rep.Placements), shape.walked, nodesUsed)
			if shape.strict < 1900 || nodesUsed >= 100 || (tc.levels > 1 && shape.walked < 100) {
				t.Fatalf("not the intended round: %d strict placements, %d walked, %d nodes used", shape.strict, shape.walked, nodesUsed)
			}
		})
	}
}

// consolidatingInput builds a large round: two topologies of
// spout → middle → tail chains, each executor sending to its successor and
// to one executor further off at seeded integer rates, and loading its
// node with 50 MHz times a seeded level in 1..levels.
func consolidatingInput(ne, nodes, levels int) (*scheduler.Input, error) {
	rng := rand.New(rand.NewSource(int64(ne)))
	cl, err := cluster.Uniform(nodes, 4, 2000, 4)
	if err != nil {
		return nil, err
	}
	db := loaddb.New(1)
	var tops []*topology.Topology
	for i, name := range []string{"synth-a", "synth-b"} {
		n := ne / 2
		if i == 1 {
			n = ne - n
		}
		spouts := max(n/10, 1)
		mids := max((n-spouts)/2, 1)
		b := topology.NewBuilder(name, max(nodes/2, 1))
		b.Spout("s", spouts).Output("default", "v")
		b.Bolt("m", mids).Shuffle("s").Output("default", "v")
		b.Bolt("t", max(n-spouts-mids, 1)).Shuffle("m")
		top, err := b.Build()
		if err != nil {
			return nil, err
		}
		tops = append(tops, top)
		execs := top.Executors()
		for j, e := range execs {
			db.UpdateExecutorLoad(e, float64(50*(1+rng.Intn(levels))))
			db.UpdateTraffic(e, execs[(j+1)%len(execs)], float64(10+rng.Intn(17)))
			db.UpdateTraffic(e, execs[(j*7+3)%len(execs)], float64(5+rng.Intn(11)))
		}
	}
	return scheduler.NewInput(tops, cl, db.Snapshot(), 0), nil
}

// shape counts, over one round's strict-pass placements, what the
// candidate pass met on the way to each.
type shape struct {
	// strict counts the placements no limit was dropped for.
	strict int
	// walked counts those where a node before the first that fits was
	// not count-full — it failed on CPU or on slot, so the cursor must
	// not skip it for good.
	walked int
	// tied counts those where two candidates — the first node that fits
	// and the nodes holding a placed neighbour — fit and share the top
	// score, so the lower index must win.
	tied int
}

// candidateShape reads a probed round's report — every slot's score and
// verdict, in node order — to see what the candidate pass met when it
// placed the same input unprobed.
func candidateShape(load *loaddb.Snapshot, rep *decision.Report) shape {
	partners := make(map[topology.ExecutorID][]topology.ExecutorID)
	for _, f := range load.Flows {
		if f.From != f.To {
			partners[f.From] = append(partners[f.From], f.To)
			partners[f.To] = append(partners[f.To], f.From)
		}
	}
	placed := make(map[topology.ExecutorID]cluster.NodeID)
	count := make(map[cluster.NodeID]int)
	var sh shape
	for _, p := range rep.Placements {
		if !p.RelaxedCount && !p.RelaxedCapacity {
			sh.strict++
			// Per node: whether it fits and its score, in node order.
			type nodeView struct {
				id   cluster.NodeID
				fits bool
				gain float64
			}
			var nodes []nodeView
			for _, o := range p.Options {
				if len(nodes) == 0 || nodes[len(nodes)-1].id != o.Slot.Node {
					nodes = append(nodes, nodeView{id: o.Slot.Node, gain: o.Gain})
				}
				nodes[len(nodes)-1].fits = nodes[len(nodes)-1].fits || o.Rejected == ""
			}
			first := slices.IndexFunc(nodes, func(n nodeView) bool { return n.fits })
			if slices.ContainsFunc(nodes[:first], func(n nodeView) bool { return float64(count[n.id]+1) <= rep.CountCap }) {
				sh.walked++
			}
			neighbour := make(map[cluster.NodeID]bool)
			for _, o := range partners[p.Executor] {
				if n, ok := placed[o]; ok {
					neighbour[n] = true
				}
			}
			for i, n := range nodes {
				if n.fits && (i == first || neighbour[n.id]) && n.id != p.Slot.Node && n.gain == p.Gain {
					sh.tied++
					break
				}
			}
		}
		placed[p.Executor] = p.Slot.Node
		count[p.Slot.Node]++
	}
	return sh
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
		if a, rep := runBoth(t, c, true); a != nil {
			checkConstraints(t, c.Input, a, rep)
		}
	})
}
