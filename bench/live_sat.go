package main

import (
	"math"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/metrics"
	"tstorm/internal/scheduler"
)

// live-sat: closed loop, unanchored, in-process engine. The readers never
// idle; the bounded queues are the only rate control, so both cores are
// pinned and any CPU freed anywhere in emit → route → codec → channel hop
// → execute turns into tuples/s. One engine runs two measured phases —
// round-robin placement, then the placement Algorithm 1 chooses from the
// monitored traffic — so the before/after ratio is taken within one run
// and machine drift cancels.

const (
	satWarmTuples  = 200_000 // processed before the first measured window
	satMonitorTick = 250 * time.Millisecond
	satRRShare     = 0.3 // of -seconds: round-robin phase
	satTStormShare = 0.6 // of -seconds: T-Storm phase (the rest settles)
)

// dryTarget lets the bench time a full Generate round — snapshot, input,
// Algorithm 1, comparison — without the round re-placing the topology
// mid-measurement.
type dryTarget struct{ *live.Engine }

func (dryTarget) Apply(string, *cluster.Assignment) (int, error) { return 0, nil }

func runLiveSat(o opts) (*result, error) {
	res := &result{Workload: "live-sat"}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	rig, setups, err := setupMedian(o.setups, func() (*liveRig, error) {
		rig, err := newLiveRig(o.seed, false, scheduler.RoundRobin{}, live.DefaultConfig(), tr)
		if err != nil {
			return nil, err
		}
		rig.gen.closedLoop()
		for rig.eng.Totals().Processed < satWarmTuples {
			time.Sleep(time.Millisecond)
		}
		return rig, nil
	}, func(r *liveRig) { r.eng.Stop() })
	if err != nil {
		return nil, err
	}
	defer rig.eng.Stop()
	res.setSamples("setup_s", "s", setups)
	if tr != nil {
		tr.drain() // the discarded setups' spans
	}

	// The bench drives the monitor itself (the period only keeps the
	// monitor's own loop out of the way) so each Sample call is timed.
	db := loaddb.New(0.5)
	mon := live.StartMonitor(rig.eng, db, time.Hour)
	defer mon.Stop()
	var sampleMs []float64
	lastSample := time.Now()
	tick := func(now time.Time) {
		if now.Sub(lastSample) >= satMonitorTick {
			lastSample = now
			t0 := time.Now()
			mon.Sample()
			sampleMs = append(sampleMs, msSince(t0))
		}
	}

	// Algorithm 1 needs a few monitor windows behind it.
	rr, err := measureLive(rig, o.atLeast(satRRShare, 5*satMonitorTick), tick)
	if err != nil {
		return nil, err
	}

	hist := decision.NewHistory(8)
	gcfg := live.GeneratorConfig{Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.10, History: hist}
	algo := core.NewTrafficAware(1.5)
	gen, err := live.StartGenerator(rig.eng, db, gcfg, algo)
	if err != nil {
		return nil, err
	}
	defer gen.Stop()
	t0 := time.Now()
	applied := gen.Reschedule()
	res.set("live.apply_ms", "ms", msSince(t0))
	if !applied {
		res.problem("Algorithm 1 produced no placement to apply")
	}
	// Spouts stay halted for SpoutHaltDelay after the apply; then the
	// drained queues refill before the second window opens.
	time.Sleep(rig.eng.Config().SpoutHaltDelay + o.share(1-satRRShare-satTStormShare))

	dry, err := live.StartGenerator(dryTarget{rig.eng}, db, live.GeneratorConfig{
		Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.10}, algo)
	if err != nil {
		return nil, err
	}
	defer dry.Stop()
	var scr *scraper
	if o.traced {
		if scr, err = startScraper(rig.eng, mon); err != nil {
			return nil, err
		}
	}
	var generateMs []float64
	lastGen := time.Now()
	tsFrom := time.Now().UnixNano()
	ts, err := measureLive(rig, o.atLeast(satTStormShare, time.Second), func(now time.Time) {
		tick(now)
		if now.Sub(lastGen) >= time.Second {
			lastGen = now
			t0 := time.Now()
			dry.Generate()
			generateMs = append(generateMs, msSince(t0))
		}
	})
	if err != nil {
		return nil, err
	}
	tsTo := time.Now().UnixNano()
	if scr != nil {
		scr.stop(res)
	}
	ratio, ok := hist.Reconcile(rig.eng.Totals().InterNodeSent, time.Now())
	if !ok {
		res.problem("no prediction to reconcile against the observed inter-node traffic")
	}

	drainAndCheck(rig, res, "live-sat")
	tot := rig.eng.Totals()
	res.Attempted = tot.RootsEmitted
	res.Failed += tot.Dropped

	res.setQuiet("throughput_per_s", "1/s", ts.tps, false)
	res.setQuiet("cpu_us_per_unit", "us", ts.cpuUs, true)
	tput, _ := res.get("throughput_per_s")
	res.tputTps = tput
	res.setQuiet("latency_p50_ms", "ms", ts.sinkP50, true)
	res.setQuiet("latency_tail_ms", "ms", ts.sinkP99, true)
	res.note("latency_tail_ms", "p99, quiet decile")

	res.setQuiet("live.default_tps", "1/s", rr.tps, false)
	rrTput, _ := res.get("live.default_tps")
	res.set("live.tstorm_speedup_x", "ratio", tput/rrTput)
	res.set("live.inter_node_fraction.default", "ratio", rr.tot.InterNodeFraction())
	res.set("live.inter_node_fraction.tstorm", "ratio", ts.tot.InterNodeFraction())
	res.set("live.inter_process_fraction.tstorm", "ratio", frac(ts.tot.InterProcessSent, ts.tot.TuplesSent))
	res.set("live.migrations", "count", float64(tot.Migrations))
	res.set("live.queue_peak_batches", "count", float64(max(rr.queuePk, ts.queuePk)))
	res.set("live.queue_saturated_fraction", "ratio", ts.queueSat)
	for _, comp := range sortedKeys(ts.busy) {
		res.set("live.busy_share."+comp, "ratio", ts.busy[comp])
	}
	liveTotalsMetrics(res, ts.tot)
	res.setSamples("live.monitor_sample_ms", "ms", sampleMs)
	res.setSamples("live.generate_ms", "ms", generateMs)
	res.set("live.predicted_vs_observed", "ratio", ratio)
	procMetrics(res)
	if tr != nil {
		traceMetrics(res, o, tr.drain(), tsFrom, tsTo, tr.emitNs)
		rig.eng.Stop() // the probes want the cores to themselves
		codecProbe(res, o.seed)
		if ns := operatorProbe(res, o.seed); ns > 0 {
			cpuUs, _ := res.get("cpu_us_per_unit")
			res.set("live.framework_overhead_x", "ratio", cpuUs*1e3/ns)
		}
		if err := ingestProbe(res, o.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// liveTotalsMetrics reports the engine counters every data-plane workload
// shares.
func liveTotalsMetrics(res *result, t live.Totals) {
	res.set("live.pool_hit_ratio", "ratio", frac(t.PoolHits, t.PoolHits+t.PoolMisses))
	res.set("live.ctl_combined_ratio", "ratio", frac(t.CtlCombined, t.CtlCombined+t.Acked))
	res.set("live.acked", "count", float64(t.Acked))
	res.set("live.failed_roots", "count", float64(t.FailedRoots))
	res.set("live.replayed", "count", float64(t.Replayed))
	res.set("live.late_acked", "count", float64(t.LateAcked))
	res.set("live.dropped", "count", float64(t.Dropped))
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// bucketQuantile reads a quantile off the engine's coarse histogram by
// interpolating geometrically inside the bucket that holds the rank. The
// bucket bounds are ~12 % apart, so without this p50, p95 and p99 of a
// tight distribution all print the same number.
func bucketQuantile(h *metrics.Histogram, q float64) float64 {
	bs := h.Buckets()
	if len(bs) == 0 {
		return 0
	}
	rank := q * float64(h.Count())
	ratio := math.Pow(10, 1.0/20) // metrics.NewLatencyHistogram: 20 bins per decade
	var cum float64
	for _, b := range bs {
		if next := cum + float64(b.Count); next >= rank {
			lower := b.UpperBound / ratio
			return math.Min(lower*math.Pow(ratio, (rank-cum)/float64(b.Count)), h.Max())
		} else {
			cum = next
		}
	}
	return h.Max()
}

// procMetrics reports the process-level per-layer metrics.
func procMetrics(res *result) {
	u, err := selfUsage()
	if err != nil {
		res.problem("reading own usage: %v", err)
	}
	res.set("proc.peak_rss_mb", "MB", u.peakRSSMB)
	res.set("proc.gc_cpu_fraction", "ratio", gcCPUFraction())
}
