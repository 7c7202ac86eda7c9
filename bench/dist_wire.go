package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/dist"
	"tstorm/internal/docstore"
	"tstorm/internal/loaddb"
	"tstorm/internal/logx"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// dist-wire: the Word Count on three real worker processes joined by
// loopback TCP, at-least-once. It is the only workload where the codec,
// the wire frame, the per-peer mutex and the socket are real rather than
// emulated, and the in-process engine's emulated wire cost is off. Fleet
// 1 saturates the wire, re-places the topology with Algorithm 1 across
// processes and survives a kill -9; fleet 2 offers a fixed rate and times
// each line.

const (
	distWorkload = "bench-wordcount"
	distNodes    = 3
	distAckers   = 1

	// distPacedRate is fleet 2's offered load in lines/s. Four processes
	// share the two cores, so the latency of this path is far more exposed
	// to the box's other tenants than the in-process engine's: at 8000 the
	// run-to-run p50 moved ±16 % in the same hour in which it held ±4 % at
	// 4000.
	distPacedRate   = 4000
	distSatShare    = 0.4  // of -seconds: fleet 1's saturated window
	distPacedShare  = 0.4  // of -seconds: fleet 2's measured window
	distFaultShare  = 0.2  // of -seconds: pre-crash baseline + recovery watch
	distTailQ       = 0.90 // latency_tail_ms on this workload; see runDistWire
	distSettle      = 500 * time.Millisecond
	distMaxPending  = 1024
	distAckTimeout  = 2 * time.Second
	distWarmLines   = 2000
	distPilotPeriod = 250 * time.Millisecond
	recoveryWindow  = 250 * time.Millisecond
)

// distParams is the workload's wire form: every worker process rebuilds
// the topology, and its generator, from these.
type distParams struct {
	Offset     int     `json:"offset"`
	MaxPending int     `json:"max_pending"` // 0 = unlimited
	Rate       float64 `json:"rate"`        // lines/s; 0 = closed loop
	SettleS    float64 `json:"settle_s"`
	MeasureS   float64 `json:"measure_s"`
	// Dir is the bench's temp dir: the stop file appears in it, the
	// generator's statistics and the workers' spans are written to it.
	Dir   string `json:"dir"`
	Trace bool   `json:"trace"`
}

func (p distParams) stopFile() string { return filepath.Join(p.Dir, "stop") }

func init() {
	dist.RegisterWorkload(distWorkload, func(raw json.RawMessage) (dist.Built, error) {
		var p distParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return dist.Built{}, err
		}
		g := newLoadGen(readers, p.Offset, true)
		g.onOpen = func() { go p.autopilot(g) }
		var tr *tracer
		if p.Trace {
			tr = newTracer()
			tr.file = filepath.Join(p.Dir, fmt.Sprintf("spans-%d.jsonl", os.Getpid()))
		}
		// The sink is per-process state, like a Mongo connection.
		app, err := wordCountApp(g, docstore.NewStore(), distAckers, tr)
		if err != nil {
			return dist.Built{}, err
		}
		if p.MaxPending > 0 {
			app.MaxPending = map[string]int{"reader": p.MaxPending}
		}
		return dist.Built{App: app, Audit: func() (acked, outstanding, restarts int) {
			s := g.counters()
			return int(s.acked), int(s.pending), 0
		}}, nil
	})
}

// genDump is what a worker's autopilot leaves in the temp dir.
type genDump struct {
	Emitted, TimedOut, Replayed int64
	Lat, Lag                    []histDump
}

// autopilot drives a worker-side generator: there is no bench goroutine
// in a worker process, so the generator follows the plan in its params,
// stops when the stop file appears, and publishes its statistics.
func (p distParams) autopilot(g *loadGen) {
	for !g.polled.Load() {
		time.Sleep(time.Millisecond) // fleet still halted: no NextTuple yet
	}
	if p.Rate == 0 {
		g.closedLoop()
	} else {
		g.pace(p.Rate, time.Duration(p.SettleS*float64(time.Second)), time.Duration(p.MeasureS*float64(time.Second)))
	}
	var lat, lag []*hist
	sink := newHist() // mergeSubs also pools; the pool is not published
	path := filepath.Join(p.Dir, fmt.Sprintf("gen-%d.json", os.Getpid()))
	for range time.Tick(distPilotPeriod) {
		if _, err := os.Stat(p.stopFile()); err == nil {
			g.stop()
		}
		s := g.harvest()
		lat = mergeSubs(lat, s.latSub, sink)
		lag = mergeSubs(lag, s.lagSub, sink)
		d := genDump{Emitted: s.emitted, TimedOut: s.timedOut, Replayed: s.replayed}
		for _, h := range lat {
			d.Lat = append(d.Lat, h.dump())
		}
		for _, h := range lag {
			d.Lag = append(d.Lag, h.dump())
		}
		raw, err := json.Marshal(d)
		if err != nil {
			continue
		}
		// Write-then-rename: the driver never reads a half-written file.
		if os.WriteFile(path+".tmp", raw, 0o644) == nil {
			os.Rename(path+".tmp", path)
		}
	}
}

// fleet is one running distributed engine with its temp dir.
type fleet struct {
	eng    *dist.Engine
	params distParams
	spawnS float64 // NewEngine + Submit + Start
	setupS float64 // … until the first lines were acked
}

func distPlacement(cl *cluster.Cluster, app *topology.Topology, algo scheduler.Algorithm, load *loaddb.Snapshot) (*cluster.Assignment, error) {
	in := scheduler.NewInput([]*topology.Topology{app}, cl, load, 0.9)
	a, err := algo.Schedule(in)
	if err == nil {
		err = checkAssignment(in, a, false)
	}
	if err != nil {
		return nil, fmt.Errorf("%s placement: %w", algo.Name(), err)
	}
	// The readers' generator state and the acker's tracking are process
	// state: they stay on the home slot, and the worker the bench kills
	// is never that one (Storm loses a worker's bolts the same way;
	// spout-side state must survive for replay to happen).
	home := cl.Slots()[0]
	for exec := range a.Executors {
		if exec.Component == "reader" || exec.Component == topology.AckerComponent {
			a.Assign(exec, home)
		}
	}
	return a, nil
}

// startFleet spawns the worker processes and returns once the topology
// has acked its first lines.
func startFleet(o opts, p distParams) (*fleet, error) {
	if err := os.RemoveAll(p.Dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	eng, err := dist.NewEngine(dist.Config{
		Nodes:       distNodes,
		Seed:        o.seed,
		AckTimeout:  distAckTimeout,
		BackoffBase: 50 * time.Millisecond,
		Log:         logx.New(os.Stderr, logx.Error),
	})
	if err != nil {
		return nil, err
	}
	// Build once locally only to learn the topology for the placement.
	g := newLoadGen(readers, 0, true)
	app, err := wordCountApp(g, docstore.NewStore(), distAckers, nil)
	if err != nil {
		return nil, err
	}
	initial, err := distPlacement(eng.Cluster(), app.Topology, scheduler.RoundRobin{}, nil)
	if err != nil {
		return nil, err
	}
	if err := eng.Submit(distWorkload, p, initial); err != nil {
		return nil, err
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	f := &fleet{eng: eng, params: p, spawnS: time.Since(t0).Seconds()}
	deadline := time.Now().Add(20 * time.Second)
	for eng.Totals().Acked < distWarmLines {
		if time.Now().After(deadline) {
			eng.Stop()
			return nil, fmt.Errorf("fleet acked no lines within 20 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.setupS = time.Since(t0).Seconds()
	return f, nil
}

// usage sums the CPU, context switches and peak RSS of the bench process
// and every live worker.
func (f *fleet) usage() (all, driver procUsage, err error) {
	driver, err = selfUsage()
	if err != nil {
		return
	}
	all = driver
	for _, w := range f.eng.Workers() {
		if w.PID == 0 {
			continue
		}
		u, err := pidUsage(w.PID)
		if err != nil {
			return all, driver, fmt.Errorf("worker %d: %w", w.PID, err)
		}
		all = all.add(u)
	}
	return all, driver, nil
}

// drain asks the generators to stop, waits until no line is owed an Ack
// and returns the workers' final statistics. lost is the number of lines
// still outstanding when the deadline passed.
func (f *fleet) drain(timeout time.Duration) (d genDump, lost int, err error) {
	if err := os.WriteFile(f.params.stopFile(), nil, 0o644); err != nil {
		return d, 0, err
	}
	time.Sleep(2 * distPilotPeriod) // every generator has seen the stop file
	deadline := time.Now().Add(timeout)
	for {
		_, lost, _ = f.eng.Audit(topoName)
		if lost == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(2 * distPilotPeriod) // the final statistics are on disk
	files, err := filepath.Glob(filepath.Join(f.params.Dir, "gen-*.json"))
	if err != nil || len(files) == 0 {
		return d, lost, fmt.Errorf("no generator statistics in %s", f.params.Dir)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		return d, lost, err
	}
	return d, lost, json.Unmarshal(raw, &d)
}

func runDistWire(o opts) (*result, error) {
	res := &result{Workload: "dist-wire"}
	if os.Getenv(dist.EnvLogLevel) == "" {
		os.Setenv(dist.EnvLogLevel, "error") // workers inherit it
	}
	dir, err := os.MkdirTemp("", "bench-dist-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	satParams := distParams{Offset: corpusOffset(o.seed), MaxPending: distMaxPending, Dir: filepath.Join(dir, "sat"), Trace: o.traced}
	pacedFor := o.atLeast(distPacedShare, time.Second)
	pacedParams := distParams{Offset: corpusOffset(o.seed), Rate: distPacedRate, SettleS: distSettle.Seconds(),
		MeasureS: pacedFor.Seconds(), Dir: filepath.Join(dir, "paced"), Trace: o.traced}

	// Fleet 1: saturated closed loop.
	f1, err := startFleet(o, satParams)
	if err != nil {
		return nil, err
	}
	defer f1.eng.Stop()
	res.set("dist.spawn_s", "s", f1.spawnS)
	db := loaddb.New(0.5)
	f1.eng.SetLoadSink(db)
	f1.eng.SetMonitorPeriod(250 * time.Millisecond)

	all0, drv0, err := f1.usage()
	if err != nil {
		return nil, err
	}
	tot0 := f1.eng.Totals()
	var tps, cpuUs, rpcMs []float64
	start := time.Now()
	subT, subAt, subU := tot0, start, all0
	for time.Since(start) < o.atLeast(distSatShare, time.Second) {
		time.Sleep(subWindow)
		c0 := time.Now()
		t := f1.eng.Totals()
		rpcMs = append(rpcMs, msSince(c0))
		now := time.Now()
		u, _, err := f1.usage()
		if err != nil {
			return nil, err
		}
		n := float64(t.Processed - subT.Processed)
		tps = append(tps, n/now.Sub(subAt).Seconds())
		cpuUs = append(cpuUs, u.sub(subU).cpuS()*1e6/n)
		subT, subAt, subU = t, now, u
	}
	sat := f1.eng.Totals().Sub(tot0)
	all1, drv1, err := f1.usage()
	if err != nil {
		return nil, err
	}
	cpu, drv := all1.sub(all0), drv1.sub(drv0)

	// Re-place the topology with Algorithm 1 from the traffic the worker
	// monitors reported, across process boundaries.
	app, _ := f1.eng.App(topoName)
	next, err := distPlacement(f1.eng.Cluster(), app.Topology, core.NewTrafficAware(1.5), db.Snapshot())
	if err != nil {
		return nil, err
	}
	c0 := time.Now()
	if _, err := f1.eng.Apply(topoName, next); err != nil {
		res.problem("cross-process apply: %v", err)
	}
	res.set("dist.apply_ms", "ms", msSince(c0))

	// Kill -9 a bolt-only worker and watch the rate come back.
	time.Sleep(distSettle)
	base := f1.rate(o.atLeast(distFaultShare/4, 2*recoveryWindow))
	// The victim is the worker, other than the home slot's, that hosts
	// the most bolts under the new placement.
	var victim cluster.SlotID
	home, bySlot := f1.eng.Cluster().Slots()[0], next.SlotExecutors()
	for slot, execs := range bySlot {
		if slot != home && len(execs) > len(bySlot[victim]) {
			victim = slot
		}
	}
	crashAt := time.Now()
	if f1.eng.CrashWorker(victim) == 0 {
		res.problem("no worker process to kill on %s", victim)
	}
	recoveryMs := -1.0
	for time.Since(crashAt) < o.atLeast(distFaultShare*3/4, 3*distAckTimeout) {
		if f1.rate(recoveryWindow) >= 0.9*base {
			recoveryMs = msSince(crashAt)
			break
		}
	}
	if recoveryMs < 0 {
		res.problem("throughput did not regain 90%% of %.0f tuples/s after the kill", base)
	}
	res.set("dist.recovery_ms", "ms", recoveryMs)

	d1, lost, err := f1.drain(30 * time.Second)
	if err != nil {
		return nil, err
	}
	if lost != 0 {
		res.problem("%d roots lost across the kill -9", lost)
	}
	tot1 := f1.eng.Totals()
	res.set("dist.respawns", "count", float64(f1.eng.Restarts()))
	res.set("dist.replayed", "count", float64(d1.Replayed))
	res.set("dist.lost_roots", "count", float64(lost))
	var spans []span
	if o.traced {
		spans = append(spans, readAllSpans(res, satParams.Dir)...)
	}
	f1.eng.Stop()

	// An extra spawn, so that setup_s is a median of three.
	fx, err := startFleet(o, satParams)
	if err != nil {
		return nil, err
	}
	fx.eng.Stop()

	// Fleet 2: paced.
	f2, err := startFleet(o, pacedParams)
	if err != nil {
		return nil, err
	}
	defer f2.eng.Stop()
	time.Sleep(distSettle + pacedFor)
	d2, lost2, err := f2.drain(30 * time.Second)
	if err != nil {
		return nil, err
	}
	if lost2 != 0 {
		res.problem("%d roots never acked in the paced fleet", lost2)
	}
	tot2 := f2.eng.Totals()
	if o.traced {
		spans = append(spans, readAllSpans(res, pacedParams.Dir)...)
	}
	f2.eng.Stop()

	res.setSamples("setup_s", "s", []float64{f1.setupS, fx.setupS, f2.setupS})
	res.setQuiet("throughput_per_s", "1/s", tps, false)
	res.setQuiet("cpu_us_per_unit", "us", cpuUs, true)
	res.tputTps, _ = res.get("throughput_per_s")
	var latSub, lagSub []*hist
	for _, h := range d2.Lat {
		latSub = append(latSub, h.load())
	}
	for _, h := range d2.Lag {
		lagSub = append(lagSub, h.load())
	}
	// The tail here is p90: with four processes on two cores the p99 of a
	// 250 ms sub-window is ten samples deep and its quiet decile still
	// moved 19 % run to run (10 seeds) where p90's moved 8 %.
	p50s, p90s := scale(subQuantiles(latSub, 0.5), 1e-6), scale(subQuantiles(latSub, distTailQ), 1e-6)
	res.setQuiet("latency_p50_ms", "ms", p50s, true)
	res.setQuiet("latency_tail_ms", "ms", p90s, true)
	res.note("latency_tail_ms", "p90, quiet decile")
	res.set("dist.gen_lag_p99_ms", "ms", median(subQuantiles(lagSub, 0.99))/1e6)

	res.set("dist.inter_process_fraction", "ratio", sat.InterNodeFraction())
	res.set("dist.sys_cpu_fraction", "ratio", cpu.sysS/cpu.cpuS())
	res.set("dist.driver_cpu_share", "ratio", drv.cpuS()/cpu.cpuS())
	res.set("dist.ctx_switches_per_ktuple", "count", float64(cpu.ctxSwitches)/float64(sat.Processed)*1e3)
	res.setSamples("dist.totals_rpc_ms", "ms", rpcMs)
	liveTotalsMetrics(res, tot1)
	procMetrics(res)
	res.set("proc.peak_rss_mb", "MB", all1.peakRSSMB)

	// Lines emitted are the attempts. A line timed out by the kill -9 and
	// later replayed and acked is a retry, not a failure; a timeout in
	// the paced fleet, where nothing was killed, is a failure.
	res.Attempted = d1.Emitted + d2.Emitted
	res.Failed += int64(lost) + int64(lost2) + d2.TimedOut + tot2.Dropped
	if o.traced {
		traceMetrics(res, o, spans, 0, math.MaxInt64, nil)
	}
	return res, nil
}

// rate measures the fleet's bolt-processed tuples/s over d.
func (f *fleet) rate(d time.Duration) float64 {
	t0, at := f.eng.Totals(), time.Now()
	time.Sleep(d)
	return float64(f.eng.Totals().Processed-t0.Processed) / time.Since(at).Seconds()
}

// readAllSpans merges the span files the workers left in dir.
func readAllSpans(res *result, dir string) []span {
	files, _ := filepath.Glob(filepath.Join(dir, "spans-*.jsonl"))
	var out []span
	for _, f := range files {
		s, err := readSpans(f)
		if err != nil {
			res.problem("reading %s: %v", f, err)
		}
		out = append(out, s...)
	}
	return out
}
