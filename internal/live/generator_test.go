package live

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// scriptTarget is a SchedulerTarget whose state a test scripts — where each
// topology runs, which nodes are down, whether Apply refuses, the
// inter-node counter — and which records every Apply. Its methods lock,
// so a generator's tick goroutine may call them; a script that changes
// the fields directly does so while no tick can run.
type scriptTarget struct {
	mu      sync.Mutex
	cl      *cluster.Cluster
	names   []string
	apps    map[string]*engine.App
	current map[string]*cluster.Assignment
	down    []cluster.NodeID
	refuse  bool
	sent    int64
	applies []applyCall
	done    chan struct{}
}

type applyCall struct {
	name    string
	next    *cluster.Assignment
	refused bool
}

func (t *scriptTarget) Topologies() []string                { return append([]string(nil), t.names...) }
func (t *scriptTarget) App(name string) (*engine.App, bool) { a, ok := t.apps[name]; return a, ok }
func (t *scriptTarget) Cluster() *cluster.Cluster           { return t.cl }
func (t *scriptTarget) Done() <-chan struct{}               { return t.done }
func (t *scriptTarget) Trace() *trace.Recorder              { return nil }

func (t *scriptTarget) DownNodes() []cluster.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]cluster.NodeID(nil), t.down...)
}

func (t *scriptTarget) Totals() Totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Totals{InterNodeSent: t.sent}
}

func (t *scriptTarget) CurrentAssignment(name string) (*cluster.Assignment, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.current[name]
	if !ok {
		return nil, false
	}
	return a.Clone(), true
}

func (t *scriptTarget) Apply(name string, next *cluster.Assignment) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applies = append(t.applies, applyCall{name, next.Clone(), t.refuse})
	if t.refuse {
		return 0, errors.New("apply refused by the script")
	}
	moved := decision.MovedExecutors(next, t.current[name])
	t.current[name] = next.Clone()
	return moved, nil
}

// scriptWorld is one cluster, three topologies and their flow edges; "gamma"
// starts with no current assignment.
type scriptWorld struct {
	cl    *cluster.Cluster
	apps  map[string]*engine.App
	names []string
	edges [][2]topology.ExecutorID
	execs []topology.ExecutorID
	rr    map[string]*cluster.Assignment // round-robin placement per topology
}

func newScriptWorld(t *testing.T) *scriptWorld {
	t.Helper()
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &scriptWorld{cl: cl, apps: map[string]*engine.App{}, rr: map[string]*cluster.Assignment{}}
	build := func(name string, chain ...struct {
		comp string
		n    int
	}) {
		b := topology.NewBuilder(name, 4)
		b.Spout(chain[0].comp, chain[0].n).Output("default", "v")
		for i := 1; i < len(chain); i++ {
			b.Bolt(chain[i].comp, chain[i].n).Shuffle(chain[i-1].comp).Output("default", "v")
		}
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		w.apps[name] = &engine.App{Topology: top}
		w.names = append(w.names, name)
		byComp := map[string][]topology.ExecutorID{}
		for _, e := range top.Executors() {
			byComp[e.Component] = append(byComp[e.Component], e)
			w.execs = append(w.execs, e)
		}
		for i := 1; i < len(chain); i++ {
			for _, from := range byComp[chain[i-1].comp] {
				for _, to := range byComp[chain[i].comp] {
					w.edges = append(w.edges, [2]topology.ExecutorID{from, to})
				}
			}
		}
		a, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{Topologies: []*topology.Topology{top}, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		w.rr[name] = a
	}
	type c = struct {
		comp string
		n    int
	}
	build("alpha", c{"src", 2}, c{"split", 4}, c{"count", 3})
	build("beta", c{"src", 1}, c{"work", 3})
	build("gamma", c{"src", 2}, c{"sink", 2})
	return w
}

func (w *scriptWorld) target() *scriptTarget {
	return &scriptTarget{
		cl: w.cl, names: w.names, apps: w.apps,
		current: map[string]*cluster.Assignment{
			"alpha": w.rr["alpha"].Clone(),
			"beta":  w.rr["beta"].Clone(),
		},
		done: make(chan struct{}),
	}
}

// window folds one random monitoring window into db; scale varies the
// load so some windows overflow node capacity and force relaxations.
func (w *scriptWorld) window(rng *rand.Rand, db *loaddb.DB) {
	scale := []float64{50, 400, 2500}[rng.IntN(3)]
	loads := make(map[topology.ExecutorID]float64, len(w.execs))
	for _, e := range w.execs {
		loads[e] = rng.Float64() * scale
	}
	flows := make(map[loaddb.FlowKey]float64, len(w.edges))
	for _, e := range w.edges {
		if rng.IntN(5) > 0 {
			flows[loaddb.FlowKey{From: e[0], To: e[1]}] = rng.Float64() * 1000
		}
	}
	db.ApplyWindow(loads, flows)
}

// TestGeneratorMatchesReference drives the parent's wall-clock generator
// (reference_test.go) and the shared one with the same scripted calls over
// seeded load windows, algorithm swaps, down nodes, refused applies and a
// topology with no current assignment, and requires the same applies, the
// same counters, the same decision history and the same reconciliation
// baseline after every step.
func TestGeneratorMatchesReference(t *testing.T) {
	algoNames := []string{"tstorm", "default", "tstorm-initial", "aniello-offline", "aniello-online",
		"load-balanced", "rstorm", "hetero", "no-such-algorithm"}
	for seed := uint64(1); seed <= 4; seed++ {
		w := newScriptWorld(t)
		db := loaddb.New(0.5)
		refT, genT := w.target(), w.target()
		refH, genH := decision.NewHistory(512), decision.NewHistory(512)
		ref, err := startReferenceGenerator(refT, db, referenceGeneratorConfig{
			Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.10, History: refH,
		}, core.NewTrafficAware(1.5))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := StartGenerator(genT, db, GeneratorConfig{
			Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.10, History: genH,
		}, core.NewTrafficAware(1.5))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ref.Stop(); gen.Stop() })

		rng := rand.New(rand.NewPCG(seed, 25))
		for step := 0; step < 120; step++ {
			var op string
			switch k := rng.IntN(12); {
			case k < 2 || step < 2:
				op = "window"
				w.window(rng, db)
			case k < 5:
				op = "generate"
				if r, g := ref.Generate(), gen.Generate(); r != g {
					t.Fatalf("seed %d step %d: Generate = %v, reference %v", seed, step, g, r)
				}
			case k < 7:
				op = "reschedule"
				if r, g := ref.Reschedule(), gen.Reschedule(); r != g {
					t.Fatalf("seed %d step %d: Reschedule = %v, reference %v", seed, step, g, r)
				}
			case k == 7:
				name := algoNames[rng.IntN(len(algoNames))]
				op = "swap " + name
				if r, g := ref.SwapTo(name), gen.SwapTo(name); (r == nil) != (g == nil) {
					t.Fatalf("seed %d step %d: SwapTo(%q) = %v, reference %v", seed, step, name, g, r)
				}
			case k == 8:
				gamma := 1 + 3*rng.Float64()
				op = "set-algorithm"
				ref.SetAlgorithm(core.NewTrafficAware(gamma))
				a := core.NewTrafficAware(gamma)
				gen.Registry().Register(a)
				if err := gen.SwapTo(a.Name()); err != nil {
					t.Fatal(err)
				}
			case k == 9:
				op = "down"
				node := w.cl.Nodes()[rng.IntN(w.cl.NumNodes())].ID
				for _, tg := range []*scriptTarget{refT, genT} {
					if len(tg.down) > 0 {
						tg.down = nil
					} else {
						tg.down = []cluster.NodeID{node}
					}
				}
			case k == 10:
				op = "refuse"
				refT.refuse, genT.refuse = !refT.refuse, !genT.refuse
			default:
				op = "traffic"
				d := rng.Int64N(100000)
				refT.sent += d
				genT.sent += d
				if step > 60 {
					// Halfway through, gamma is submitted and gets a
					// current assignment the generators may then move.
					for _, tg := range []*scriptTarget{refT, genT} {
						if _, ok := tg.current["gamma"]; !ok {
							tg.current["gamma"] = w.rr["gamma"].Clone()
						}
					}
				}
			}
			sameGenerators(t, seed, step, op, ref, gen, refT, genT, refH, genH)
		}
		refused := len(genT.applies) - gen.Applied()
		t.Logf("seed %d: %d rounds, %d applies, %d refused", seed, gen.Generations(), gen.Applied(), refused)
		if gen.Generations() == 0 || gen.Applied() == 0 || refused == 0 {
			t.Fatalf("seed %d: the script exercised too little (%d rounds, %d applies, %d refused)",
				seed, gen.Generations(), gen.Applied(), refused)
		}
	}
}

func sameGenerators(t *testing.T, seed uint64, step int, op string, ref *referenceGenerator, gen *core.Generator,
	refT, genT *scriptTarget, refH, genH *decision.History) {
	t.Helper()
	at := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (%s): "+format, append([]any{seed, step, op}, args...)...)
	}
	if len(refT.applies) != len(genT.applies) {
		at("%d Apply calls, reference %d", len(genT.applies), len(refT.applies))
	}
	for i, r := range refT.applies {
		g := genT.applies[i]
		if g.name != r.name || g.refused != r.refused || !g.next.Equal(r.next) {
			at("Apply %d = %s %v, reference %s %v", i, g.name, g.next.Executors, r.name, r.next.Executors)
		}
	}
	if ref.Generations() != gen.Generations() || ref.Applied() != gen.Applied() {
		at("generations/applied %d/%d, reference %d/%d", gen.Generations(), gen.Applied(), ref.Generations(), ref.Applied())
	}
	if r, g := ref.Algorithm().Name(), gen.Algorithm().Name(); r != g {
		at("algorithm %q, reference %q", g, r)
	}
	if refH.Rounds() != genH.Rounds() || refH.Moves() != genH.Moves() || refH.Relaxations() != genH.Relaxations() {
		at("history counters %d/%d/%d, reference %d/%d/%d", genH.Rounds(), genH.Moves(), genH.Relaxations(),
			refH.Rounds(), refH.Moves(), refH.Relaxations())
	}
	rr, gr := refH.Reports(), genH.Reports()
	for i := range rr {
		rr[i].Start, rr[i].Duration = time.Time{}, 0
		gr[i].Start, gr[i].Duration = time.Time{}, 0
	}
	if !reflect.DeepEqual(rr, gr) {
		at("decision reports differ from the reference")
	}
	rs, gs := refH.TrafficHistory(), genH.TrafficHistory()
	for i := range rs {
		rs[i].At, gs[i].At = time.Time{}, time.Time{}
	}
	if !reflect.DeepEqual(rs, gs) {
		at("traffic snapshots differ from the reference")
	}
	// The baseline is private to History; two reconciliations far in the
	// future pin both of its values (the prediction and the counter).
	far := time.Now().Add(2e6 * time.Hour)
	for _, extra := range []int64{1e6, 3e6} {
		r, rok := refH.Reconcile(refT.sent+extra, far)
		g, gok := genH.Reconcile(genT.sent+extra, far)
		if rok != gok || math.Abs(r-g) > 1e-8*math.Max(math.Abs(r), 1) {
			at("reconciliation %v (ok %v), reference %v (ok %v)", g, gok, r, rok)
		}
	}
}

// TestTickerEndsWithEngine: the wall-clock loop — the generator's, the
// monitor's, the supervisor's — ends when the engine's Done closes, with
// no stop; stop afterwards returns at once, however often it is called,
// and so does a wall-clock generator's Stop.
func TestTickerEndsWithEngine(t *testing.T) {
	tg := newScriptWorld(t).target()
	gen, err := StartGenerator(tg, loaddb.New(0.5), GeneratorConfig{
		Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.10,
	}, core.NewTrafficAware(1.5))
	if err != nil {
		t.Fatal(err)
	}
	tk := startTicker(tg.Done(), time.Hour, func() { t.Error("ticked") })
	close(tg.done)
	select {
	case <-tk.exited:
	case <-time.After(10 * time.Second):
		t.Fatal("the ticker outlived its engine")
	}
	tk.stop()
	tk.stop()
	gen.Stop()
	gen.Stop()
}

// TestWallClockGeneratorUnderConcurrentCalls: on a wall clock the
// generator's ticks run on their own goroutine while callers reschedule,
// swap algorithms and read its counters — the sharing ci.sh runs under
// the race detector.
func TestWallClockGeneratorUnderConcurrentCalls(t *testing.T) {
	w := newScriptWorld(t)
	db := loaddb.New(0.5)
	w.window(rand.New(rand.NewPCG(1, 1)), db)
	gen, err := StartGenerator(w.target(), db, GeneratorConfig{
		Period: time.Millisecond, CapacityFraction: 0.9, ImprovementThreshold: 0.10,
		History: decision.NewHistory(8),
	}, core.NewTrafficAware(1.5))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()
	names := []string{"tstorm", "rstorm", "hetero", "default"}
	calls := 0
	for deadline := time.Now().Add(10 * time.Second); calls < 200 || gen.Generations() < calls+2; calls++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d rounds after %d calls: the ticks never ran", gen.Generations(), calls)
		}
		if err := gen.SwapTo(names[calls%len(names)]); err != nil {
			t.Fatal(err)
		}
		gen.Reschedule()
		_ = gen.Applied() + gen.OverloadTriggers()
	}
}
