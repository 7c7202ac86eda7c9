package monitor

import (
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

type seqSpout struct{ n int }

func (s *seqSpout) Open(*engine.Context) {}
func (s *seqSpout) NextTuple(em engine.SpoutEmitter) {
	em.EmitWithID("", tuple.Values{s.n}, s.n)
	s.n++
}
func (s *seqSpout) Ack(any)  {}
func (s *seqSpout) Fail(any) {}

type nopBolt struct{}

func (nopBolt) Prepare(*engine.Context)             {}
func (nopBolt) Execute(tuple.Tuple, engine.Emitter) {}

func startPipeline(t *testing.T) (*engine.Runtime, *loaddb.DB, *engine.App) {
	t.Helper()
	cl, err := cluster.Uniform(2, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(engine.DefaultConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	b := topology.NewBuilder("mon", 2)
	b.SetAckers(1)
	b.Spout("s", 1).Output("default", "v")
	b.Bolt("b", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"s": func() engine.Spout { return &seqSpout{} }},
		Bolts:    map[string]func() engine.Bolt{"b": func() engine.Bolt { return nopBolt{} }},
		Costs: map[string]engine.CostFn{
			"s": engine.ConstCost(engine.Cycles(200*time.Microsecond, 2000)),
			"b": engine.ConstCost(engine.Cycles(400*time.Microsecond, 2000)),
		},
	}
	a := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		a.Assign(e, cl.Slots()[0])
	}
	if err := rt.Submit(app, a); err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(0.5)
	return rt, db, app
}

func TestFleetSamplesLoadsAndTraffic(t *testing.T) {
	rt, db, app := startPipeline(t)
	f := Start(rt, db, 20*time.Second)
	if err := rt.RunFor(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.period != 20*time.Second {
		t.Fatalf("Period = %v", f.period)
	}
	if !db.HasData() {
		t.Fatal("no data stored")
	}
	spoutID := topology.ExecutorID{Topology: "mon", Component: "s", Index: 0}
	boltID := topology.ExecutorID{Topology: "mon", Component: "b", Index: 0}
	// Spout emits ~200/s at 0.2 ms/tuple ⇒ ~80 MHz (0.04 CPU × 2000 MHz);
	// the bolt does ~double the work. Check orders of magnitude and ratio.
	sl, bl := snapLoad(db, spoutID), snapLoad(db, boltID)
	if sl <= 0 || bl <= 0 {
		t.Fatalf("loads not positive: spout=%v bolt=%v", sl, bl)
	}
	if bl < sl {
		t.Fatalf("bolt load %v below spout load %v despite 2× cost", bl, sl)
	}
	// Traffic spout→bolt ≈ emit rate (~190-200 tuples/s).
	tr := snapTraffic(db, spoutID, boltID)
	if tr < 100 || tr > 250 {
		t.Fatalf("spout→bolt traffic = %v tuples/s, want ~200", tr)
	}
	_ = app
}

func TestSilentPairsDecayTowardZero(t *testing.T) {
	rt, db, _ := startPipeline(t)
	f := Start(rt, db, 20*time.Second)
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	spoutID := topology.ExecutorID{Topology: "mon", Component: "s", Index: 0}
	boltID := topology.ExecutorID{Topology: "mon", Component: "b", Index: 0}
	before := snapTraffic(db, spoutID, boltID)
	if before <= 0 {
		t.Fatal("no traffic before stop")
	}
	// Stop the cluster's progress by stopping monitors' subject: simplest
	// is to stop sampling drains and feed zeros via extra idle time after
	// the topology stops emitting. Here: kill the fleet, manually sample
	// with nothing flowing.
	f.Stop()
	rt.DrainTraffic() // clear
	f.Sample()        // window with no flow: all known pairs decay by α
	after := snapTraffic(db, spoutID, boltID)
	if after >= before {
		t.Fatalf("silent pair did not decay: %v → %v", before, after)
	}
}

func TestStartDefaultsPeriod(t *testing.T) {
	rt, db, _ := startPipeline(t)
	f := Start(rt, db, 0)
	if f.period != DefaultPeriod {
		t.Fatalf("Period = %v, want %v", f.period, DefaultPeriod)
	}
	f.Stop()
}

// snapLoad and snapTraffic read one estimate through a snapshot (0 when
// unknown).
func snapLoad(db *loaddb.DB, e topology.ExecutorID) float64 { return db.Snapshot().ExecLoad[e] }

func snapTraffic(db *loaddb.DB, from, to topology.ExecutorID) float64 {
	for _, f := range db.Snapshot().Flows {
		if f.From == from && f.To == to {
			return f.Rate
		}
	}
	return 0
}
