package main

import (
	"fmt"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/scheduler"
	"tstorm/internal/textdata"
	"tstorm/internal/topology"
	"tstorm/internal/workloads"
)

// The data-plane workloads all run the paper's Word Count shape,
// 2 reader → 4 split → 4 count → 2 mongo, on 4 nodes × 4 slots.
const (
	clusterNodes = 4
	slotsPerNode = 4
	readers      = 2
	liveAckers   = 4 // in-process anchored runs; sharded by root id
	topoName     = "wordcount-live"

	// readerIdleSleep is the readers' SpoutInterval: how long the engine
	// sleeps a reader after a cycle that emitted nothing. It bounds the
	// generator's lag on a paced run and is never slept in a closed loop.
	readerIdleSleep = 200 * time.Microsecond
)

// corpusOffset turns the seed into the corpus line the readers start at.
func corpusOffset(seed uint64) int { return int(seed % uint64(textdata.NumLines())) }

// wordCountApp builds the self-fed Word Count with the reader replaced by
// the bench's generator (and, on a traced pass, every factory decorated).
func wordCountApp(g *loadGen, sink *docstore.Store, ackers int, tr *tracer) (*engine.App, error) {
	cfg := workloads.DefaultSelfFedWordCountConfig()
	cfg.Spouts = readers
	cfg.Sink = sink
	var app *engine.App
	var err error
	if g.anchored {
		cfg.Ackers = ackers
		app, _, err = workloads.NewReliableSelfFedWordCount(cfg)
	} else {
		app, err = workloads.NewSelfFedWordCount(cfg)
	}
	if err != nil {
		return nil, err
	}
	app.Spouts["reader"] = g.spout()
	app.SpoutInterval = map[string]time.Duration{"reader": readerIdleSleep}
	// The engine-level MaxPending (0 = unlimited unless a workload sets
	// it) governs; the builder's per-spout default of 128 would turn the
	// open loop into a closed one.
	delete(app.MaxPending, "reader")
	if tr != nil {
		tr.wrap(app, g.anchored)
	}
	return app, nil
}

// liveRig is one running in-process engine with its generator and sink.
type liveRig struct {
	eng  *live.Engine
	gen  *loadGen
	sink *docstore.Store
	app  *engine.App
}

// newLiveRig builds, places and starts an engine. The generator is idle
// until the caller starts a rung.
func newLiveRig(seed uint64, anchored bool, place scheduler.Algorithm, cfg live.Config, tr *tracer) (*liveRig, error) {
	cl, err := cluster.Uniform(clusterNodes, 4, 2000, slotsPerNode)
	if err != nil {
		return nil, err
	}
	rig := &liveRig{
		gen:  newLoadGen(readers, corpusOffset(seed), anchored),
		sink: docstore.NewStore(),
	}
	if rig.app, err = wordCountApp(rig.gen, rig.sink, liveAckers, tr); err != nil {
		return nil, err
	}
	in := scheduler.NewInput([]*topology.Topology{rig.app.Topology}, cl, nil, 0)
	initial, err := place.Schedule(in)
	if err != nil {
		return nil, fmt.Errorf("initial placement: %w", err)
	}
	cfg.Seed = seed
	if rig.eng, err = live.NewEngine(cfg, cl); err != nil {
		return nil, err
	}
	if err := rig.eng.Submit(rig.app, initial); err != nil {
		return nil, err
	}
	if err := rig.eng.Start(); err != nil {
		return nil, err
	}
	return rig, nil
}

// setupMedian runs setup n times, tearing down all but the last, and
// returns the last rig with every run's duration. Setup is repeated so
// that setup_s is a median, not one draw.
func setupMedian[T any](n int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		rig, err := setup()
		if err != nil {
			return keep, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(rig)
		} else {
			keep = rig
		}
	}
	return keep, secs, nil
}

// liveWindow is what one measured stretch of a live engine yields.
type liveWindow struct {
	secs  float64
	tot   live.Totals // deltas over the window
	tps   []float64   // bolt-processed tuples/s per sub-window
	cpuUs []float64   // CPU µs per bolt-processed tuple per sub-window
	// sinkP50 and sinkP99 are the engine's spout-emit → sink latency per
	// sub-window, in ms, read off its coarse histogram by interpolation.
	sinkP50, sinkP99 []float64
	cpu              procUsage // bench-process deltas
	queuePk          int       // deepest input queue seen, in batches
	queueSat         float64   // mean share of queues ≥ 80 % full
	busy             map[string]float64
}

const (
	subWindow = 250 * time.Millisecond
	pollEvery = 50 * time.Millisecond // 20 Hz queue gauge polling
)

// measureLive watches an engine for d. tick, when non-nil, runs every
// pollEvery on the measuring goroutine (the bench-driven monitor hangs
// off it).
func measureLive(rig *liveRig, d time.Duration, tick func(now time.Time)) (liveWindow, error) {
	eng := rig.eng
	var w liveWindow
	cpu0, err := selfUsage()
	if err != nil {
		return w, err
	}
	busy0 := busyNanos(rig)
	eng.DrainLatency() // the first sub-window starts clean
	t0 := eng.Totals()
	start := time.Now()
	subT, subAt, subU := t0, start, cpu0
	var satSum float64
	polls := 0
	tk := time.NewTicker(pollEvery)
	defer tk.Stop()
	for now := range tk.C {
		sat, depth := eng.QueueSaturation(0.8)
		satSum += sat
		polls++
		if depth > w.queuePk {
			w.queuePk = depth
		}
		if tick != nil {
			tick(now)
		}
		if el := now.Sub(subAt); el >= subWindow {
			t := eng.Totals()
			u, err := selfUsage()
			if err != nil {
				return w, err
			}
			if n := float64(t.Processed - subT.Processed); n > 0 {
				w.tps = append(w.tps, n/el.Seconds())
				w.cpuUs = append(w.cpuUs, u.sub(subU).cpuS()*1e6/n)
			}
			if lat := eng.DrainLatency(); lat.Count() > 0 {
				w.sinkP50 = append(w.sinkP50, bucketQuantile(lat, 0.5))
				w.sinkP99 = append(w.sinkP99, bucketQuantile(lat, 0.99))
			}
			subT, subAt, subU = t, now, u
		}
		if now.Sub(start) >= d {
			break
		}
	}
	w.secs = time.Since(start).Seconds()
	w.tot = eng.Totals().Sub(t0)
	cpu1, err := selfUsage()
	if err != nil {
		return w, err
	}
	w.cpu = cpu1.sub(cpu0)
	w.queueSat = satSum / float64(polls)
	w.busy = make(map[string]float64)
	for comp, ns := range busyNanos(rig) {
		par := 1
		if c, ok := rig.app.Topology.Component(comp); ok {
			par = c.Parallelism
		}
		w.busy[comp] = float64(ns-busy0[comp]) / (w.secs * 1e9 * float64(par))
	}
	return w, nil
}

// busyNanos sums, per component, the time its executors have spent in
// user code so far: bolts from the engine's per-executor process-time
// histograms, readers from the generator's own NextTuple timing.
func busyNanos(rig *liveRig) map[string]int64 {
	out := make(map[string]int64)
	for _, st := range rig.eng.ExecutorStats() {
		if st.ProcLatency != nil {
			out[st.ID.Component] += int64(st.ProcLatency.Sum() * 1e6) // ms → ns
		}
	}
	for _, r := range rig.gen.readers {
		out["reader"] += r.busyNs.Load()
	}
	return out
}

// drainAndCheck stops the generator, waits for the topology to empty and
// verifies the run's output: no root left pending, and — when nothing was
// replayed, so every line was processed exactly once — every word's count
// in the sink equal to a reference count over exactly the lines emitted.
func drainAndCheck(rig *liveRig, res *result, phase string) {
	rig.gen.stop()
	// A reader may still hold its last emissions in its emitter: they are
	// flushed on its next (empty) cycle, one idle sleep away. Two quiet
	// readings several such sleeps apart cannot both be early.
	quiet := 0
	deadline := time.Now().Add(60 * time.Second)
	for quiet < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * readerIdleSleep)
		if rig.eng.Quiesce(50*time.Millisecond) && rig.eng.PendingRoots() == 0 && rig.gen.owed() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	if quiet < 2 {
		res.problem("%s: topology did not drain within a minute", phase)
		return
	}
	if n := rig.eng.PendingRoots(); n != 0 {
		res.problem("%s: %d roots still pending after drain", phase, n)
	}
	if n := rig.gen.owed(); n != 0 {
		res.problem("%s: %d emitted lines never acked", phase, n)
	}
	if rig.eng.Totals().Replayed != 0 {
		return
	}
	ref := referenceCounts(rig.gen.lineCounts())
	got := rig.sink.Counters("words")
	if len(got) != len(ref) {
		res.problem("%s: sink holds %d distinct words, reference %d", phase, len(got), len(ref))
	}
	bad := 0
	for w, n := range ref {
		if got[w] != n {
			bad++
		}
	}
	if bad > 0 {
		res.problem("%s: %d of %d word counts differ from the reference", phase, bad, len(ref))
	}
}

// referenceCounts is the word count the topology must produce for the
// given per-corpus-line emission counts, computed with the same
// tokenizer the split bolt uses.
func referenceCounts(lineCounts []int64) map[string]int64 {
	ref := make(map[string]int64)
	for i, c := range lineCounts {
		if c == 0 {
			continue
		}
		for _, w := range textdata.SplitWords(textdata.Line(i)) {
			ref[w] += c
		}
	}
	return ref
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
