package experiment

// DES golden tests: a fingerprint of whole simulated runs — every counter
// the engine keeps, every latency bucket bit for bit, and a hash of the
// load database after each monitor sample — is pinned in
// testdata/golden/des/. The simulation is exact (same seed ⇒ same run), so
// a passing run proves a change to internal/sim or internal/engine left
// event order, RNG draw order and routing untouched; a diff names the
// first counter that moved. The fixtures were captured on the
// container/heap kernel and the closure-per-message engine that preceded
// the typed-event rebuild. Regenerate deliberately with
// `go test -run TestGoldenDES ./internal/experiment -update` after a change
// that is MEANT to alter simulated behaviour.

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/metrics"
	"tstorm/internal/monitor"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
	"tstorm/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/des fixtures")

// exact is a float64 pinned by its bits; the decimal rendering beside them
// is only there so a diff can be read.
type exact float64

func (f exact) MarshalJSON() ([]byte, error) {
	v := float64(f)
	return json.Marshal(fmt.Sprintf("%016x %s", math.Float64bits(v), strconv.FormatFloat(v, 'g', 9, 64)))
}

type desFingerprint struct {
	SimEvents  uint64                     `json:"sim_events"`
	SinkWrites int64                      `json:"sink_writes"`
	Topologies map[string]topoFingerprint `json:"topologies"`
	// Monitor holds one hash per sampling round: the load database's
	// estimates right after the monitor folded in that round's
	// DrainLoadSamples and DrainTraffic, so one changed tuple count or CPU
	// bit in any window changes every hash from there on.
	Monitor []string `json:"monitor"`
}

type topoFingerprint struct {
	RootsEmitted        int64                    `json:"roots_emitted"`
	Completions         int64                    `json:"completions"`
	LateCompletions     int64                    `json:"late_completions"`
	Failed              int64                    `json:"failed"`
	Dropped             int64                    `json:"dropped"`
	WorkerCrashes       int64                    `json:"worker_crashes"`
	RescueReassignments int64                    `json:"rescue_reassignments"`
	Reassignments       []reassignFingerprint    `json:"reassignments"`
	Components          map[string]compFingerprt `json:"components"`
	Latency             []bucketFingerprint      `json:"latency"`
	Failures            []bucketFingerprint      `json:"failures"`
	P50                 exact                    `json:"p50_ms"`
	P99                 exact                    `json:"p99_ms"`
}

type reassignFingerprint struct {
	AtNs  int64 `json:"at_ns"`
	ID    int64 `json:"id"`
	Nodes int   `json:"nodes"`
	Slots int   `json:"slots"`
}

type compFingerprt struct {
	Executed  int64 `json:"executed"`
	Emitted   int64 `json:"emitted"`
	CPUCycles exact `json:"cpu_cycles"`
}

type bucketFingerprint struct {
	StartNs int64 `json:"start_ns"`
	Count   int64 `json:"count"`
	Sum     exact `json:"sum"`
	Max     exact `json:"max"`
}

func buckets(points []metrics.Point) []bucketFingerprint {
	out := make([]bucketFingerprint, 0, len(points))
	for _, p := range points {
		out = append(out, bucketFingerprint{int64(p.Start), p.Count, exact(p.Sum), exact(p.Max)})
	}
	return out
}

func fingerprintTopology(tm *engine.TopologyMetrics) topoFingerprint {
	fp := topoFingerprint{
		RootsEmitted: tm.RootsEmitted, Completions: tm.Completions, LateCompletions: tm.LateCompletions,
		Failed: tm.Failed, Dropped: tm.Dropped, WorkerCrashes: tm.WorkerCrashes,
		RescueReassignments: tm.RescueReassignments,
		Reassignments:       []reassignFingerprint{},
		Components:          map[string]compFingerprt{},
		Latency:             buckets(tm.Latency.Points()),
		Failures:            buckets(tm.Failures.Points()),
		P50:                 exact(tm.LatencyHist.Quantile(0.5)),
		P99:                 exact(tm.LatencyHist.Quantile(0.99)),
	}
	for _, r := range tm.Reassignments {
		fp.Reassignments = append(fp.Reassignments, reassignFingerprint{int64(r.At), r.AssignID, r.UsedNodes, r.UsedSlots})
	}
	for name, cs := range tm.Components {
		fp.Components[name] = compFingerprt{cs.Executed, cs.Emitted, exact(cs.CPUCycles)}
	}
	return fp
}

// hashLoadDB hashes every estimate in the database, in a fixed order.
func hashLoadDB(db *loaddb.DB) string {
	snap := db.Snapshot()
	h := fnv.New64a()
	num := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	execs := make([]topology.ExecutorID, 0, len(snap.ExecLoad))
	for e := range snap.ExecLoad {
		execs = append(execs, e)
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].Less(execs[j]) })
	for _, e := range execs {
		h.Write([]byte(e.String()))
		num(snap.ExecLoad[e])
	}
	for _, f := range snap.Flows { // Snapshot sorts them
		h.Write([]byte(f.From.String()))
		h.Write([]byte(f.To.String()))
		num(f.Rate)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// desCase is one pinned run.
type desCase struct {
	name string
	// open assembles the run: either experiment.start on a Config or a
	// runtime built by hand for what Config cannot express.
	open func(t *testing.T) *session
	dur  time.Duration
	// script, when set, schedules the case's fault injections.
	script func(t *testing.T, s *session)
	// exercised reports whether the run did what the case is pinned for,
	// so a fixture cannot quietly stop covering its mechanism.
	exercised func(fp *desFingerprint) bool
}

func fromConfig(cfg Config) func(*testing.T) *session {
	return func(t *testing.T) *session {
		t.Helper()
		s, err := start(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// at schedules fn at an instant of the session's clock.
func (s *session) at(d time.Duration, fn func()) { s.rt.Sim().After(d, fn) }

// slotOf is where the named executor sits under the current assignment.
func slotOf(t *testing.T, s *session, topo, comp string, idx int) cluster.SlotID {
	t.Helper()
	a, ok := s.rt.CurrentAssignment(topo)
	if !ok {
		t.Fatalf("no assignment for %q", topo)
	}
	slot, ok := a.Slot(topology.ExecutorID{Topology: topo, Component: comp, Index: idx})
	if !ok {
		t.Fatalf("%s/%s[%d] unplaced", topo, comp, idx)
	}
	return slot
}

func anyTopo(fp *desFingerprint, pred func(topoFingerprint) bool) bool {
	for _, tf := range fp.Topologies {
		if pred(tf) {
			return true
		}
	}
	return false
}

func reassigned(fp *desFingerprint) bool {
	return anyTopo(fp, func(tf topoFingerprint) bool { return len(tf.Reassignments) > 1 })
}

func desCases() []desCase {
	var cases []desCase
	// Every workload under stock Storm and under the full T-Storm stack,
	// with a generation period short enough that T-Storm re-assigns (and
	// smooths the re-assignment) inside the run.
	for _, w := range []struct {
		kind WorkloadKind
		dur  time.Duration
	}{
		{WorkloadThroughput, 90 * time.Second},
		{WorkloadWordCount, 120 * time.Second},
		{WorkloadLogStream, 120 * time.Second},
		{WorkloadChain, 120 * time.Second},
	} {
		for _, sched := range []SchedulerKind{SchedStormDefault, SchedTStorm} {
			cfg := Config{
				Workload: w.kind, Scheduler: sched, Duration: w.dur, Seed: 7,
				GenerationPeriod: 40 * time.Second,
			}
			c := desCase{name: string(w.kind) + "-" + string(sched), dur: w.dur}
			if sched == SchedTStorm {
				cfg.Gamma = 1.8
				if w.kind != WorkloadChain { // the chain already sits on one node
					c.exercised = reassigned
				}
			}
			c.open = fromConfig(cfg)
			cases = append(cases, c)
		}
	}

	// Fig. 3 / Fig. 9 shape: five spouts overload one bolt executor, roots
	// time out and are replayed, late completions arrive after the failure.
	overload := workloads.DefaultChainConfig()
	overload.Spouts, overload.Bolts, overload.Workers = 5, 1, 1
	overload.BoltCostCycles = 1.5e-3 * 2000e6
	cases = append(cases, desCase{
		name: "overload-timeout-replay",
		open: fromConfig(Config{
			Workload: WorkloadChain, Scheduler: SchedPinned, Nodes: 1, Duration: 110 * time.Second,
			Seed: 3, ChainCfg: &overload, PinAssignment: pinAllOn,
		}),
		dur: 110 * time.Second,
		exercised: func(fp *desFingerprint) bool {
			return anyTopo(fp, func(tf topoFingerprint) bool { return tf.Failed > 0 && len(tf.Failures) > 0 })
		},
	})

	// A worker process crashes twice; its supervisor restarts it in place
	// and a root whose tuples died with it times out and is replayed.
	cases = append(cases, desCase{
		name: "crash-worker",
		open: fromConfig(Config{Workload: WorkloadWordCount, Scheduler: SchedStormDefault, Duration: 80 * time.Second, Seed: 5}),
		dur:  80 * time.Second,
		script: func(t *testing.T, s *session) {
			s.at(25*time.Second, func() { s.rt.CrashWorker(slotOf(t, s, "wordcount", "split", 0)) })
			s.at(47*time.Second, func() { s.rt.CrashWorker(slotOf(t, s, "wordcount", "count", 2)) })
		},
		exercised: func(fp *desFingerprint) bool {
			return anyTopo(fp, func(tf topoFingerprint) bool { return tf.WorkerCrashes == 2 && tf.Failed > 0 })
		},
	})

	// A node dies under smooth re-assignment: Nimbus notices the missing
	// heartbeat and publishes a rescue assignment onto the live nodes.
	cases = append(cases, desCase{
		name: "fail-node-rescue",
		open: fromConfig(Config{
			Workload: WorkloadWordCount, Scheduler: SchedTStorm, Gamma: 1.8, Duration: 120 * time.Second,
			Seed: 5, GenerationPeriod: 300 * time.Second,
		}),
		dur: 120 * time.Second,
		script: func(t *testing.T, s *session) {
			s.at(22*time.Second, func() { s.rt.FailNode(slotOf(t, s, "wordcount", "count", 1).Node) })
		},
		exercised: func(fp *desFingerprint) bool {
			return anyTopo(fp, func(tf topoFingerprint) bool { return tf.RescueReassignments == 1 })
		},
	})

	// Algorithm 1's schedule applied the stock-Storm way: workers are
	// killed and restarted without coordination and tuples in flight die.
	cases = append(cases, desCase{
		name: "storm-mode-reassign-drops",
		open: fromConfig(Config{
			Workload: WorkloadWordCount, Scheduler: SchedTStorm, Gamma: 1.8, Duration: 100 * time.Second,
			Seed: 9, GenerationPeriod: 40 * time.Second, SmoothOverride: -1,
		}),
		dur: 100 * time.Second,
		exercised: func(fp *desFingerprint) bool {
			return reassigned(fp) && anyTopo(fp, func(tf topoFingerprint) bool { return tf.Dropped > 0 })
		},
	})

	// Transfer batching: inter-node messages coalesce while the NIC is busy.
	cases = append(cases, desCase{
		name: "batch-flush",
		open: fromConfig(Config{Workload: WorkloadThroughput, Scheduler: SchedStormDefault, Duration: 40 * time.Second, Seed: 11, Batching: true}),
		dur:  40 * time.Second,
	})

	cases = append(cases,
		desCase{name: "local-or-shuffle", open: openLocalOrShuffle, dur: 100 * time.Second, exercised: reassigned},
		desCase{name: "groupings-emit-direct", open: openGroupings, dur: 60 * time.Second},
		desCase{name: "two-topologies", open: openTwoTopologies, dur: 100 * time.Second, exercised: reassigned},
	)
	return cases
}

// tstormStack attaches the T-Storm stack to a hand-built runtime, as start
// does for SchedTStorm.
func tstormStack(t *testing.T, s *session, gamma float64, period time.Duration) {
	t.Helper()
	gcfg := core.DefaultGeneratorConfig()
	gcfg.GenerationPeriod = period
	if err := s.reschedule(gcfg, core.NewTrafficAware(gamma)); err != nil {
		t.Fatal(err)
	}
}

func handBuilt(t *testing.T, ecfg engine.Config, nodes int) (*session, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.Uniform(nodes, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(ecfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	return &session{rt: rt, stop: func() {}}, cl
}

// seqSpout emits its sequence number as a reliable root every cycle and
// replays what fails.
type seqSpout struct {
	n       int
	replays []int
	emit    func(em engine.SpoutEmitter, n int)
}

func (s *seqSpout) Open(*engine.Context) {}
func (s *seqSpout) NextTuple(em engine.SpoutEmitter) {
	if len(s.replays) > 0 {
		n := s.replays[0]
		s.replays = s.replays[1:]
		s.emit(em, n)
		return
	}
	s.n++
	s.emit(em, s.n)
}
func (s *seqSpout) Ack(any) {}
func (s *seqSpout) Fail(id any) {
	s.replays = append(s.replays, id.(int))
}

type forwardBolt struct{}

func (forwardBolt) Prepare(*engine.Context)                   {}
func (forwardBolt) Execute(in tuple.Tuple, em engine.Emitter) { em.Emit("", in.Values) }

type nullBolt struct{}

func (nullBolt) Prepare(*engine.Context)             {}
func (nullBolt) Execute(tuple.Tuple, engine.Emitter) {}

// openLocalOrShuffle: two LocalOrShuffle hops under the T-Storm stack, so
// the locality set of every sender changes when workers are re-assigned.
func openLocalOrShuffle(t *testing.T) *session {
	ecfg := engine.TStormConfig()
	ecfg.Seed = 13
	s, cl := handBuilt(t, ecfg, 4)
	b := topology.NewBuilder("los", 8)
	b.SetAckers(2)
	b.Spout("spout", 4).Output("default", "v")
	b.Bolt("work", 8).LocalOrShuffle("spout").Output("default", "v")
	b.Bolt("sink", 3).LocalOrShuffle("work")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s.app = &engine.App{
		Topology: top,
		Spouts: map[string]func() engine.Spout{"spout": func() engine.Spout {
			return &seqSpout{emit: func(em engine.SpoutEmitter, n int) { em.EmitWithID("", tuple.Values{n}, n) }}
		}},
		Bolts: map[string]func() engine.Bolt{
			"work": func() engine.Bolt { return forwardBolt{} },
			"sink": func() engine.Bolt { return nullBolt{} },
		},
	}
	// Stock Storm's spread to start from, so Algorithm 1 has something to
	// consolidate.
	initial, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.rt.Submit(s.app, initial); err != nil {
		t.Fatal(err)
	}
	tstormStack(t, s, 2, 40*time.Second)
	return s
}

// aggBolt re-keys its input on the default stream and sends every third
// tuple straight to one task of the direct subscriber, anchored.
type aggBolt struct{ seen int }

func (b *aggBolt) Prepare(*engine.Context) {}
func (b *aggBolt) Execute(in tuple.Tuple, em engine.Emitter) {
	b.seen++
	n, _ := in.Values[3].(int)
	em.Emit("", tuple.Values{in.Values[0], b.seen})
	if n%3 == 0 {
		em.EmitDirect("direct", n%3, "", tuple.Values{"agg", n})
	}
	em.Emit("undeclared", tuple.Values{n}) // ignored
}

// openGroupings: every grouping the router knows on one topology — fields
// on a four-type composite key, all, global, shuffle on a second stream,
// direct from a spout and from a bolt, unanchored emissions and an emit on
// an undeclared stream.
func openGroupings(t *testing.T) *session {
	ecfg := engine.DefaultConfig()
	ecfg.Seed = 17
	s, cl := handBuilt(t, ecfg, 3)
	b := topology.NewBuilder("groupings", 6)
	b.SetAckers(2)
	b.Spout("spout", 2).Output("default", "s", "f", "b", "n").Output("side", "n")
	b.Bolt("agg", 3).Fields("spout", "s", "f", "b", "n").Output("default", "s", "count")
	b.Bolt("bcast", 2).All("spout")
	b.Bolt("glob", 2).Global("spout")
	b.Bolt("direct", 3).Direct("spout").Direct("agg")
	b.Bolt("side", 2).ShuffleStream("spout", "side")
	b.Bolt("sink", 2).Fields("agg", "s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	null := func() engine.Bolt { return nullBolt{} }
	s.app = &engine.App{
		Topology: top,
		Spouts: map[string]func() engine.Spout{"spout": func() engine.Spout {
			return &seqSpout{emit: func(em engine.SpoutEmitter, n int) {
				em.EmitWithID("", tuple.Values{"k" + strconv.Itoa(n%7), float64(n%5) / 4, n%2 == 0, n}, n)
				if n%3 == 0 {
					em.EmitDirect("direct", n%3, "", tuple.Values{"spout", n})
				}
				if n%5 == 0 {
					em.Emit("side", tuple.Values{n})
				}
			}}
		}},
		Bolts: map[string]func() engine.Bolt{
			"agg": func() engine.Bolt { return &aggBolt{} }, "bcast": null, "glob": null,
			"direct": null, "side": null, "sink": null,
		},
	}
	initial, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.rt.Submit(s.app, initial); err != nil {
		t.Fatal(err)
	}
	return s
}

// openTwoTopologies: Throughput Test and the chain share one cluster under
// the T-Storm stack, which schedules them together.
func openTwoTopologies(t *testing.T) *session {
	ecfg := engine.TStormConfig()
	ecfg.Seed = 19
	s, cl := handBuilt(t, ecfg, 6)
	tcfg := workloads.DefaultThroughputConfig()
	tcfg.Workers = 12
	first, err := workloads.NewThroughputTest(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := workloads.DefaultChainConfig()
	ccfg.Workers, ccfg.BoltPar = 4, 2
	second, err := workloads.NewChain(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	s.app = first
	global, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{first.Topology, second.Topology}, Cluster: cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []*engine.App{first, second} {
		part := cluster.NewAssignment(0)
		for _, e := range app.Topology.Executors() {
			slot, _ := global.Slot(e)
			part.Assign(e, slot)
		}
		if err := s.rt.Submit(app, part); err != nil {
			t.Fatal(err)
		}
	}
	tstormStack(t, s, 1.5, 40*time.Second)
	return s
}

func TestGoldenDES(t *testing.T) {
	for _, c := range desCases() {
		t.Run(c.name, func(t *testing.T) {
			s := c.open(t)
			defer s.stop()
			db := s.db
			if db == nil {
				// No monitors of its own: give it a fleet that only watches.
				db = loaddb.New(0.5)
				monitor.Start(s.rt, db, monitor.DefaultPeriod)
			}
			fp := &desFingerprint{Topologies: map[string]topoFingerprint{}, Monitor: []string{}}
			// Created after the fleet's ticker, so at every sampling instant
			// it fires right behind the sample.
			s.rt.Sim().Every(monitor.DefaultPeriod, monitor.DefaultPeriod, func() {
				fp.Monitor = append(fp.Monitor, hashLoadDB(db))
			})
			if c.script != nil {
				c.script(t, s)
			}
			if err := s.rt.RunFor(c.dur); err != nil {
				t.Fatal(err)
			}
			fp.SimEvents = s.rt.Sim().EventsFired()
			if s.sink != nil {
				fp.SinkWrites = s.sink.TotalWrites()
			}
			for _, name := range s.rt.Topologies() {
				fp.Topologies[name] = fingerprintTopology(s.rt.Metrics(name))
			}
			if c.exercised != nil && !c.exercised(fp) {
				t.Errorf("the run no longer exercises what %q is pinned for", c.name)
			}
			got, err := json.MarshalIndent(fp, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", "des", c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to capture): %v", err)
			}
			if string(want) != string(got) {
				t.Fatalf("simulated run diverged from %s:\n%s", path, firstDiff(string(want), string(got)))
			}
		})
	}
}

// firstDiff renders the first differing line of two fixtures with the
// line before it, which names the section.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d (after %q):\n  want %s\n  got  %s", i+1, strings.TrimSpace(w[max(i-1, 0)]), w[i], g[i])
		}
	}
	return fmt.Sprintf("fixture has %d lines, run produced %d", len(w), len(g))
}
