package scheduler

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// internFlowsByMap is the hashed interning the group lookup replaced: an
// index keyed by executor ID, kept as the oracle InternFlows must match.
func internFlowsByMap(execs []topology.ExecutorID, flows []loaddb.Flow) ([]Flow, []float64) {
	index := make(map[topology.ExecutorID]int32, len(execs))
	for i, e := range execs {
		index[e] = int32(i) + 1
	}
	out := make([]Flow, len(flows))
	traffic := make([]float64, len(execs))
	for i, f := range flows {
		from, to := index[f.From]-1, index[f.To]-1
		out[i] = Flow{From: from, To: to, Rate: f.Rate}
		if from >= 0 {
			traffic[from] += f.Rate
		}
		if to >= 0 {
			traffic[to] += f.Rate
		}
	}
	return out, traffic
}

// randomRound draws one round's placement order — every executor of one
// to three random topologies, in declaration order, in rstorm's BFS order
// or shuffled, which splits a component into many groups — and flows
// whose endpoints are mostly in the round. The rest are
// strangers: another topology, an unknown component, an index past the
// component's parallelism, a negative index.
func randomRound(t *testing.T, rng *rand.Rand) ([]topology.ExecutorID, []loaddb.Flow) {
	t.Helper()
	var execs []topology.ExecutorID
	for ti := range 1 + rng.IntN(3) {
		top := buildChain(t, string(rune('a'+ti)), 4, 1+rng.IntN(4), 1+rng.IntN(6))
		switch rng.IntN(3) {
		case 0:
			execs = append(execs, top.Executors()...)
		case 1:
			execs = append(execs, bfsOrderedExecutors(top)...)
		default:
			own := top.Executors()
			rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
			execs = append(execs, own...)
		}
	}
	strangers := []topology.ExecutorID{
		{Topology: "gone", Component: "spout", Index: 0},
		{Topology: "a", Component: "nope", Index: 0},
		{Topology: "a", Component: "mid", Index: 99},
		{Topology: "a", Component: "spout", Index: -1},
	}
	pick := func() topology.ExecutorID {
		if rng.IntN(6) == 0 {
			return strangers[rng.IntN(len(strangers))]
		}
		return execs[rng.IntN(len(execs))]
	}
	var flows []loaddb.Flow
	for range rng.IntN(4 * len(execs)) {
		flows = append(flows, loaddb.Flow{From: pick(), To: pick(), Rate: float64(rng.IntN(40)) / 3})
	}
	return execs, flows
}

// TestInternFlowsMatchesIndexMap: resolving endpoints through the groups
// gives the hashed index's positions bit for bit, -1 for every executor
// outside the round, and the same per-executor traffic sums.
func TestInternFlowsMatchesIndexMap(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 21))
		execs, flows := randomRound(t, rng)
		p := Policy{Executors: execs}
		p.InternFlows(flows)
		wantFlows, wantTraffic := internFlowsByMap(execs, flows)
		if !slices.Equal(p.Flows, wantFlows) {
			t.Fatalf("seed %d: flows %v, want %v", seed, p.Flows, wantFlows)
		}
		for i := range wantTraffic {
			if math.Float64bits(p.Traffic[i]) != math.Float64bits(wantTraffic[i]) {
				t.Fatalf("seed %d: traffic of %v = %v, want %v", seed, execs[i], p.Traffic[i], wantTraffic[i])
			}
		}
	}
}

// TestInternFlowsStrangers: a flow to or from an executor outside the
// round keeps its rate but maps that endpoint to -1, and counts only
// toward the endpoint that is in the round.
func TestInternFlowsStrangers(t *testing.T) {
	top := buildChain(t, "a", 4, 2, 3)
	p := Policy{Executors: top.Executors()}
	in := topology.ExecutorID{Topology: "a", Component: "mid", Index: 2}
	strangers := []topology.ExecutorID{
		{Topology: "b", Component: "mid", Index: 2},
		{Topology: "a", Component: "ghost", Index: 0},
		{Topology: "a", Component: "mid", Index: 3},
		{Topology: "a", Component: "mid", Index: -1},
	}
	var flows []loaddb.Flow
	for _, s := range strangers {
		flows = append(flows, loaddb.Flow{From: in, To: s, Rate: 1}, loaddb.Flow{From: s, To: in, Rate: 2})
	}
	p.InternFlows(flows)
	pos, _ := top.Number(in.Component, in.Index)
	for i, f := range p.Flows {
		want := Flow{From: int32(pos), To: -1, Rate: 1}
		if i%2 == 1 {
			want = Flow{From: -1, To: int32(pos), Rate: 2}
		}
		if f != want {
			t.Fatalf("flow %d (%v → %v) interned as %+v, want %+v", i, flows[i].From, flows[i].To, f, want)
		}
	}
	for i, tr := range p.Traffic {
		if want := 0.0; i == pos {
			if tr != 12 {
				t.Fatalf("traffic of %v = %v, want 12", in, tr)
			}
		} else if tr != want {
			t.Fatalf("traffic of %v = %v, want 0", p.Executors[i], tr)
		}
	}
}

// TestSortDescendingMatchesStableSort: on keys without NaN, with many
// ties and both zeros, the radix order is the order the comparison sort it
// replaced gave — descending key, then executor ID — and Flows, Demands
// and Traffic follow their executors.
func TestSortDescendingMatchesStableSort(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		execs, flows := randomRound(t, rng)
		p := Policy{Executors: slices.Clone(execs), Demands: make([]Demand, len(execs))}
		p.InternFlows(flows)
		key := make([]float64, len(execs))
		for i := range key {
			p.Demands[i].CPUMHz = float64(i)
			switch rng.IntN(5) {
			case 0:
				key[i] = math.Copysign(0, -1)
			case 1:
				key[i] = -float64(rng.IntN(4)) / 7
			default:
				key[i] = float64(rng.IntN(6)) * 1e-3 * float64(1+rng.IntN(3))
			}
		}
		order := make([]int, len(execs))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(i, j int) int {
			switch {
			case key[i] > key[j]:
				return -1
			case key[i] != key[j]:
				return 1
			}
			return execs[i].Compare(execs[j])
		})
		before := p // every slice is reordered in place
		before.Demands, before.Traffic, before.Flows = slices.Clone(p.Demands), slices.Clone(p.Traffic), slices.Clone(p.Flows)
		p.SortDescending(key)
		for r, i := range order {
			if p.Executors[r] != execs[i] || p.Demands[r] != before.Demands[i] || p.Traffic[r] != before.Traffic[i] {
				t.Fatalf("seed %d: rank %d holds %v, want %v (key %v)", seed, r, p.Executors[r], execs[i], key[i])
			}
		}
		for i, f := range p.Flows {
			g := before.Flows[i]
			if (g.From < 0) != (f.From < 0) || (f.From >= 0 && p.Executors[f.From] != execs[g.From]) ||
				(g.To < 0) != (f.To < 0) || (f.To >= 0 && p.Executors[f.To] != execs[g.To]) {
				t.Fatalf("seed %d: flow %d renumbered to %+v from %+v", seed, i, f, g)
			}
		}
	}
}

// TestSortDescendingNaN: a NaN key sorts after every number, +Inf and
// -Inf included, and NaNs among themselves by executor ID, as do -0 and +0.
func TestSortDescendingNaN(t *testing.T) {
	top := buildChain(t, "n", 4, 2, 3) // spout 0-1, mid 0-2, sink 0-2, __acker 0-1
	execs := top.Executors()
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	byName := map[string]float64{
		"n/spout[0]": nan, "n/spout[1]": 1, "n/mid[0]": negZero, "n/mid[1]": math.Inf(-1),
		"n/mid[2]": nan, "n/sink[0]": 0, "n/sink[1]": math.Inf(1), "n/sink[2]": -2,
		"n/__acker[0]": nan, "n/__acker[1]": 1,
	}
	key := make([]float64, len(execs))
	for i, e := range execs {
		key[i] = byName[e.String()]
	}
	p := Policy{Executors: execs, Demands: make([]Demand, len(execs))}
	p.SortDescending(key)
	want := []string{
		"n/sink[1]", "n/__acker[1]", "n/spout[1]", "n/mid[0]", "n/sink[0]", "n/sink[2]", "n/mid[1]",
		"n/__acker[0]", "n/mid[2]", "n/spout[0]",
	}
	for r, e := range p.Executors {
		if e.String() != want[r] {
			t.Fatalf("rank %d holds %v, want %s; order %v", r, e, want[r], p.Executors)
		}
	}
}
