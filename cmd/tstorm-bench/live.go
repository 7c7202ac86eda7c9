package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/docstore"
	"tstorm/internal/health"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/telemetry"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tsdb"
	"tstorm/internal/workloads"
)

// livePhase is one benchmark phase's latency and backpressure summary.
type livePhase struct {
	Phase          string  `json:"phase"` // "warmup" | "measure"
	P50LatencyMs   float64 `json:"p50_latency_ms"`
	P95LatencyMs   float64 `json:"p95_latency_ms"`
	P99LatencyMs   float64 `json:"p99_latency_ms"`
	PeakQueueDepth int     `json:"peak_queue_depth"` // deepest input queue seen, in tuples
}

// liveRun is one measured configuration of the live benchmark.
type liveRun struct {
	Scheduler         string      `json:"scheduler"`
	TuplesPerSec      float64     `json:"tuples_per_sec"`
	SinkTuplesPerSec  float64     `json:"sink_tuples_per_sec"`
	P50LatencyMs      float64     `json:"p50_latency_ms"`
	P95LatencyMs      float64     `json:"p95_latency_ms"`
	P99LatencyMs      float64     `json:"p99_latency_ms"`
	InterNodeFraction float64     `json:"inter_node_fraction"`
	Migrations        int64       `json:"migrations"`
	Phases            []livePhase `json:"phases"`
}

// telemetryOverhead records the telemetry-on vs telemetry-off throughput
// comparison (same scheduler, same seed, a scraper polling /metrics at
// ScrapeHz during the on run), so the "overhead stays in the noise" claim
// is reproducible from the report alone.
type telemetryOverhead struct {
	Scheduler       string  `json:"scheduler"`
	OffTuplesPerSec float64 `json:"off_tuples_per_sec"`
	OnTuplesPerSec  float64 `json:"on_tuples_per_sec"`
	// DeltaFraction is (on − off) / off; near zero (or positive, run
	// noise) means scraping does not tax the emission path.
	DeltaFraction float64 `json:"delta_fraction"`
	ScrapeHz      float64 `json:"scrape_hz"`
}

// healthOverhead records the health-sampler on vs off throughput
// comparison: a back-to-back pair of default runs where the on side runs
// the full observability layer — ring-buffer tsdb, collector over the
// engine taps, and the SLO rule engine — on a SampleEvery cadence. The
// cadence is 10× faster than production's 1 s default so the sampler's
// cost is amplified above run noise; if even that stays inside the
// budget, the production cadence trivially does.
type healthOverhead struct {
	Scheduler       string  `json:"scheduler"`
	OffTuplesPerSec float64 `json:"off_tuples_per_sec"`
	OnTuplesPerSec  float64 `json:"on_tuples_per_sec"`
	// DeltaFraction is (on − off) / off; the acceptance budget allows a
	// slowdown of at most BudgetFraction.
	DeltaFraction  float64 `json:"delta_fraction"`
	SampleEveryMs  float64 `json:"sample_every_ms"`
	BudgetFraction float64 `json:"budget_fraction"`
	WithinBudget   bool    `json:"within_budget"`
}

// decisionOverhead records the decision-recording on vs off throughput
// comparison, measured inside a single steady-state tstorm run:
// alternating back-to-back windows during which Generate runs at
// GenerateHz through either a probe-less generator or one wired to a
// decision.History, so every Algorithm 1 pass narrates itself (ranks,
// per-slot rejections, predicted traffic). Both sides pay the Schedule
// cost; only the recording differs, and at GenerateHz it runs thousands
// of times more often than production's one pass per period. Single-run
// windows cancel the machine drift that separate processes can't.
type decisionOverhead struct {
	Scheduler string `json:"scheduler"`
	// Off/OnTuplesPerSec are medians across the window pairs.
	OffTuplesPerSec float64 `json:"off_tuples_per_sec"`
	OnTuplesPerSec  float64 `json:"on_tuples_per_sec"`
	// DeltaFraction is the median of per-pair on/off window ratios,
	// minus one — adjacent windows share the engine's state, so the
	// ratio isolates the recording cost.
	DeltaFraction float64 `json:"delta_fraction"`
	// GenerateHz is the forced Generate rate during each window.
	GenerateHz  float64 `json:"generate_hz"`
	HistorySize int     `json:"history_size"`
	// SampleReport summarizes the recorded round, proving the history
	// captured a real decision during the on run.
	SampleReport *decisionSummary `json:"sample_report,omitempty"`
}

// decisionSummary is the compact form of a decision.Report for the
// benchmark document (the full per-executor explanation lives behind
// /debug/scheduler and `tstorm-sched explain`).
type decisionSummary struct {
	Round           int64   `json:"round"`
	Algorithm       string  `json:"algorithm"`
	Executors       int     `json:"executors"`
	NodesUsed       int     `json:"nodes_used"`
	PredictedBefore float64 `json:"predicted_before"`
	PredictedAfter  float64 `json:"predicted_after"`
	Moved           int     `json:"moved"`
	Relaxations     int     `json:"relaxations"`
	Applied         bool    `json:"applied"`
	DurationMs      float64 `json:"duration_ms"`
}

// recoveryRun records the kill-a-worker phase: a reliable (at-least-once)
// run where one bolt-hosting worker is crashed mid-stream and the
// supervisor restarts it. RecoveryMs is crash-to-90%-of-pre-crash
// throughput; LostRoots must be zero for the at-least-once claim to hold.
type recoveryRun struct {
	Scheduler            string  `json:"scheduler"`
	AckTimeoutMs         float64 `json:"ack_timeout_ms"`
	Lines                int     `json:"lines"` // distinct corpus lines fed
	PreCrashTuplesPerSec float64 `json:"pre_crash_tuples_per_sec"`
	RecoveryMs           float64 `json:"recovery_ms"` // -1 if 90% was never regained
	LostRoots            int     `json:"lost_roots"`
	Replays              int64   `json:"replays"`
	FailedRoots          int64   `json:"failed_roots"`
	WorkerCrashes        int64   `json:"worker_crashes"`
	WorkerRestarts       int64   `json:"worker_restarts"`
}

// liveReport is the JSON document written by -live -json.
type liveReport struct {
	Benchmark   string    `json:"benchmark"`
	DurationSec float64   `json:"duration_sec"`
	Seed        uint64    `json:"seed"`
	Runs        []liveRun `json:"runs"`
	// Speedup is T-Storm's measured tuples/s over the default scheduler's.
	Speedup float64 `json:"speedup"`
	// Recovery is the kill-a-worker fault-tolerance phase.
	Recovery *recoveryRun `json:"recovery,omitempty"`
	// Telemetry is the scrape-overhead comparison (nil without -json).
	Telemetry *telemetryOverhead `json:"telemetry_overhead,omitempty"`
	// Health is the health-sampler overhead comparison, written by -health.
	Health *healthOverhead `json:"health_overhead,omitempty"`
	// Decision is the decision-recording overhead comparison.
	Decision *decisionOverhead `json:"decision_overhead,omitempty"`
	// Distributed is the multi-process (loopback TCP) phase, written by
	// -backend dist into the same document.
	Distributed *distReport `json:"distributed,omitempty"`
	// Arena is the every-registered-algorithm ranking, written by -arena
	// into the same document.
	Arena *arenaReport `json:"arena,omitempty"`
	// LockContentionNote records how the emission path synchronizes, with
	// the pre-snapshot baseline for comparison.
	LockContentionNote string `json:"lock_contention_note"`
}

// lockContentionNote documents the routing-snapshot change in the report:
// emitters used to hold the engine-wide RWMutex through target selection,
// encoding, copy passes, and the WireCost burn, serializing all executors
// on one lock; routing now loads an immutable copy-on-write snapshot with
// one atomic read and batches same-target deliveries per emit cycle. The
// quoted numbers are the lock-based baseline measured before the change.
const lockContentionNote = "per-emission routing is lock-free: emitters read an atomic " +
	"copy-on-write snapshot (no eng.mu on the hot path) and batch same-target deliveries " +
	"per emit cycle; lock-based baseline on this workload was default 157038 t/s, " +
	"tstorm 176101 t/s (1.12x)"

// runLive benchmarks the wall-clock runtime: the self-fed Word Count on an
// emulated 4-node cluster under Storm's default round-robin placement
// versus T-Storm (initial schedule + monitor-fed Algorithm 1 reschedule),
// reporting real goroutine throughput, end-to-end latency, and the
// inter-node traffic fraction. telemetryAddr, when non-empty, serves the
// observability endpoints on that address for the duration of each run;
// the scrape-overhead comparison runs afterwards on its own ephemeral
// server.
func runLive(duration time.Duration, seed uint64, jsonPath, telemetryAddr string, healthOn bool) error {
	if duration <= 0 {
		duration = 3 * time.Second
	}
	fmt.Printf("Live runtime benchmark: self-fed Word Count, 4 nodes × 4 slots, %.0fs measure window\n\n", duration.Seconds())

	var runs []liveRun
	for _, sched := range []string{"default", "tstorm"} {
		run, err := liveOnce(sched, duration, seed, telemetryAddr, 0, nil, 0)
		if err != nil {
			return fmt.Errorf("live %s run: %w", sched, err)
		}
		runs = append(runs, run)
		fmt.Printf("%-8s  %10.0f tuples/s  %8.0f sink/s  p50 %6.2f ms  p95 %7.2f ms  p99 %7.2f ms  inter-node %5.1f%%  migrations %d  peak queue %d\n",
			run.Scheduler, run.TuplesPerSec, run.SinkTuplesPerSec,
			run.P50LatencyMs, run.P95LatencyMs, run.P99LatencyMs,
			100*run.InterNodeFraction, run.Migrations, run.Phases[1].PeakQueueDepth)
	}
	report := liveReport{
		Benchmark:          "live-wordcount",
		DurationSec:        duration.Seconds(),
		Seed:               seed,
		Runs:               runs,
		LockContentionNote: lockContentionNote,
	}
	if runs[0].TuplesPerSec > 0 {
		report.Speedup = runs[1].TuplesPerSec / runs[0].TuplesPerSec
	}
	fmt.Printf("\nT-Storm speedup over default: %.2f×\n", report.Speedup)

	// Fault-tolerance phase: crash a bolt-hosting worker mid-run under
	// at-least-once delivery and time the supervised recovery.
	rec, err := runRecovery(seed)
	if err != nil {
		return fmt.Errorf("live recovery run: %w", err)
	}
	report.Recovery = &rec
	fmt.Printf("recovery (kill one worker): %.0f ms back to 90%% of %.0f tuples/s; lost roots %d, replays %d, failed %d, crashes %d, restarts %d\n",
		rec.RecoveryMs, rec.PreCrashTuplesPerSec, rec.LostRoots, rec.Replays,
		rec.FailedRoots, rec.WorkerCrashes, rec.WorkerRestarts)

	// Telemetry overhead: a dedicated back-to-back off/on pair of default
	// runs, so machine state (GC, caches, neighbors) is as equal as two
	// separate runs can get — comparing against the benchmark's first run
	// would mostly measure run-ordering effects.
	const scrapeHz = 1.0
	offRun, err := liveOnce("default", duration, seed, "", 0, nil, 0)
	if err != nil {
		return fmt.Errorf("live telemetry-off run: %w", err)
	}
	onRun, err := liveOnce("default", duration, seed, "127.0.0.1:0", scrapeHz, nil, 0)
	if err != nil {
		return fmt.Errorf("live telemetry-on run: %w", err)
	}
	report.Telemetry = &telemetryOverhead{
		Scheduler:       "default",
		OffTuplesPerSec: offRun.TuplesPerSec,
		OnTuplesPerSec:  onRun.TuplesPerSec,
		ScrapeHz:        scrapeHz,
	}
	if offRun.TuplesPerSec > 0 {
		report.Telemetry.DeltaFraction = onRun.TuplesPerSec/offRun.TuplesPerSec - 1
	}
	fmt.Printf("telemetry overhead (1 Hz scrape): %.0f → %.0f tuples/s (%+.1f%%)\n",
		report.Telemetry.OffTuplesPerSec, report.Telemetry.OnTuplesPerSec,
		100*report.Telemetry.DeltaFraction)

	// Health-sampler overhead (-health): another back-to-back off/on pair
	// where the on run carries the full observability layer sampling at
	// 10× the production cadence. The ≤3% budget is the acceptance gate
	// for the "sampling stays out of the hot path" claim.
	if healthOn {
		const (
			sampleEvery  = 100 * time.Millisecond
			healthBudget = 0.03
		)
		hOff, err := liveOnce("default", duration, seed, "", 0, nil, 0)
		if err != nil {
			return fmt.Errorf("live health-off run: %w", err)
		}
		hOn, err := liveOnce("default", duration, seed, "", 0, nil, sampleEvery)
		if err != nil {
			return fmt.Errorf("live health-on run: %w", err)
		}
		report.Health = &healthOverhead{
			Scheduler:       "default",
			OffTuplesPerSec: hOff.TuplesPerSec,
			OnTuplesPerSec:  hOn.TuplesPerSec,
			SampleEveryMs:   float64(sampleEvery) / float64(time.Millisecond),
			BudgetFraction:  healthBudget,
		}
		if hOff.TuplesPerSec > 0 {
			report.Health.DeltaFraction = hOn.TuplesPerSec/hOff.TuplesPerSec - 1
		}
		report.Health.WithinBudget = report.Health.DeltaFraction >= -healthBudget
		verdict := "within"
		if !report.Health.WithinBudget {
			verdict = "OVER"
		}
		fmt.Printf("health-sampler overhead (%.0f ms cadence): %.0f → %.0f tuples/s (%+.1f%%, %s the %.0f%% budget)\n",
			report.Health.SampleEveryMs, report.Health.OffTuplesPerSec, report.Health.OnTuplesPerSec,
			100*report.Health.DeltaFraction, verdict, 100*healthBudget)
	}

	// Decision-recording overhead: alternating windows inside one
	// steady-state tstorm run (see decisionOverhead).
	dec, err := runDecisionOverhead(seed)
	if err != nil {
		return fmt.Errorf("live decision-overhead run: %w", err)
	}
	report.Decision = &dec
	fmt.Printf("decision-recording overhead (%g Hz Generate, alternating in-run windows): %.0f → %.0f tuples/s (%+.1f%%)\n",
		dec.GenerateHz, dec.OffTuplesPerSec, dec.OnTuplesPerSec, 100*dec.DeltaFraction)
	if s := report.Decision.SampleReport; s != nil {
		fmt.Printf("sample decision: algo=%s execs=%d nodes=%d inter-node %.0f -> %.0f tuples/s moved=%d in %.2f ms\n",
			s.Algorithm, s.Executors, s.NodesUsed, s.PredictedBefore, s.PredictedAfter, s.Moved, s.DurationMs)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// median returns the middle value of xs (mean of the middle two when
// even); xs must be non-empty and is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakPoller samples the engine's deepest input queue on a short interval
// so phases can report their backpressure high-water mark.
type peakPoller struct {
	eng  *live.Engine
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func startPeakPoller(eng *live.Engine) *peakPoller {
	p := &peakPoller{eng: eng, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tk.C:
				if d := int64(p.eng.MaxQueueDepth()); d > p.peak.Load() {
					p.peak.Store(d)
				}
			}
		}
	}()
	return p
}

// Take returns the peak observed since the last Take and resets it.
func (p *peakPoller) Take() int { return int(p.peak.Swap(0)) }

func (p *peakPoller) Stop() {
	close(p.stop)
	<-p.done
}

// scrapeLoop polls url at hz until stop closes, discarding bodies — a
// stand-in for a Prometheus server's scrape cycle.
func scrapeLoop(url string, hz float64, stop <-chan struct{}) {
	tk := time.NewTicker(time.Duration(float64(time.Second) / hz))
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
			resp, err := http.Get(url)
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
	}
}

// liveOnce measures one scheduler configuration. telemetryAddr, when
// non-empty, serves the telemetry endpoints for the run's duration;
// scrapeHz > 0 additionally polls /metrics at that rate; hist, when
// non-nil, records every scheduling round's decision report (tstorm
// runs only — the baselines never invoke the generator); healthEvery > 0
// attaches the full observability layer (tsdb collector + SLO engine)
// sampling at that cadence for the run's duration.
func liveOnce(sched string, measure time.Duration, seed uint64, telemetryAddr string, scrapeHz float64, hist *decision.History, healthEvery time.Duration) (liveRun, error) {
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		return liveRun{}, err
	}
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Sink = docstore.NewStore()
	app, err := workloads.NewSelfFedWordCount(wcfg)
	if err != nil {
		return liveRun{}, err
	}
	in := scheduler.NewInput([]*topology.Topology{app.Topology}, cl, nil, 0)
	var initial *cluster.Assignment
	if sched == "tstorm" {
		initial, err = scheduler.TStormInitial{}.Schedule(in)
	} else {
		initial, err = scheduler.RoundRobin{}.Schedule(in)
	}
	if err != nil {
		return liveRun{}, err
	}

	lcfg := live.DefaultConfig()
	lcfg.Seed = seed
	if telemetryAddr != "" {
		lcfg.Trace = trace.NewRecorder(512)
	}
	eng, err := live.NewEngine(lcfg, cl)
	if err != nil {
		return liveRun{}, err
	}
	if err := eng.Submit(app, initial); err != nil {
		return liveRun{}, err
	}
	if err := eng.Start(); err != nil {
		return liveRun{}, err
	}
	defer eng.Stop()

	const monitorPeriod = 250 * time.Millisecond
	var mon *live.Monitor
	if sched == "tstorm" {
		db := loaddb.New(0.5)
		mon = live.StartMonitor(eng, db, monitorPeriod)
		defer mon.Stop()
		gen, err := live.StartGenerator(eng, db, live.GeneratorConfig{
			Period:               time.Hour, // one forced reschedule below
			CapacityFraction:     0.9,
			ImprovementThreshold: 0.10,
			History:              hist,
		}, core.NewTrafficAware(1.5))
		if err != nil {
			return liveRun{}, err
		}
		defer gen.Stop()
		deadline := time.Now().Add(10 * time.Second)
		for mon.Samples() < 4 && time.Now().Before(deadline) {
			time.Sleep(monitorPeriod / 5)
		}
		gen.Reschedule()
	} else {
		time.Sleep(4 * monitorPeriod) // matching warm-up
	}

	if telemetryAddr != "" {
		srv, err := telemetry.NewServer(telemetry.Config{
			Engine: eng, Monitor: mon, Trace: lcfg.Trace,
		})
		if err != nil {
			return liveRun{}, err
		}
		if err := srv.Start(telemetryAddr); err != nil {
			return liveRun{}, err
		}
		defer srv.Close()
		if scrapeHz > 0 {
			stopScrape := make(chan struct{})
			defer close(stopScrape)
			go scrapeLoop("http://"+srv.Addr()+"/metrics", scrapeHz, stopScrape)
		}
	}

	if healthEvery > 0 {
		// The same wiring tstorm.WithHealth performs: ring-buffer series
		// fed by a collector over the engine taps, evaluated by the
		// standard SLO rules on every tick. The sampler runs through the
		// warm-up and the whole measured window.
		db := tsdb.NewDB(0)
		col := health.NewCollector(db, health.Sources{
			Totals:            eng.Totals,
			PendingRoots:      eng.PendingRoots,
			QueueSaturation:   func() (float64, int) { return eng.QueueSaturation(0.8) },
			CompletionLatency: eng.CompletionLatencySnapshot,
		})
		heng := health.New(health.StandardRules(db, health.RuleOptions{}), lcfg.Trace)
		smp := tsdb.NewSampler(healthEvery, func(now time.Time) {
			col.Collect(now)
			heng.Evaluate(now)
		})
		smp.Start()
		defer smp.Stop()
	}

	poller := startPeakPoller(eng)
	defer poller.Stop()

	// Let the pipeline regain steady state: the reschedule drained every
	// queue and spouts stay halted for SpoutHaltDelay after it.
	time.Sleep(lcfg.SpoutHaltDelay + time.Second)

	warmLat := eng.DrainLatency() // warm-up window's samples
	warmup := livePhase{
		Phase:          "warmup",
		P50LatencyMs:   warmLat.Quantile(0.5),
		P95LatencyMs:   warmLat.Quantile(0.95),
		P99LatencyMs:   warmLat.Quantile(0.99),
		PeakQueueDepth: poller.Take(),
	}

	t0 := eng.Totals()
	start := time.Now()
	time.Sleep(measure)
	w := eng.Totals().Sub(t0)
	elapsed := time.Since(start).Seconds()
	lat := eng.DrainLatency()
	measured := livePhase{
		Phase:          "measure",
		P50LatencyMs:   lat.Quantile(0.5),
		P95LatencyMs:   lat.Quantile(0.95),
		P99LatencyMs:   lat.Quantile(0.99),
		PeakQueueDepth: poller.Take(),
	}
	eng.Stop()

	return liveRun{
		Scheduler:         sched,
		TuplesPerSec:      float64(w.Processed) / elapsed,
		SinkTuplesPerSec:  float64(w.SinkProcessed) / elapsed,
		P50LatencyMs:      measured.P50LatencyMs,
		P95LatencyMs:      measured.P95LatencyMs,
		P99LatencyMs:      measured.P99LatencyMs,
		InterNodeFraction: w.InterNodeFraction(),
		Migrations:        eng.Totals().Migrations,
		Phases:            []livePhase{warmup, measured},
	}, nil
}

// runDecisionOverhead measures what decision recording costs the live
// pipeline. One tstorm-scheduled self-fed Word Count reaches steady
// state (including the real recorded reschedule, which becomes the
// sample report); then throughput is measured over alternating windows
// during which Generate is forced at generateHz through a probe-less
// generator ("off") or one wired to a decision.History ("on"). The
// improvement threshold is set so none of the forced rounds re-applies.
func runDecisionOverhead(seed uint64) (decisionOverhead, error) {
	const (
		historySize = 16
		generateHz  = 20.0
		window      = time.Second
		pairs       = 5
	)
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		return decisionOverhead{}, err
	}
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Sink = docstore.NewStore()
	app, err := workloads.NewSelfFedWordCount(wcfg)
	if err != nil {
		return decisionOverhead{}, err
	}
	in := scheduler.NewInput([]*topology.Topology{app.Topology}, cl, nil, 0)
	initial, err := scheduler.TStormInitial{}.Schedule(in)
	if err != nil {
		return decisionOverhead{}, err
	}
	lcfg := live.DefaultConfig()
	lcfg.Seed = seed
	eng, err := live.NewEngine(lcfg, cl)
	if err != nil {
		return decisionOverhead{}, err
	}
	if err := eng.Submit(app, initial); err != nil {
		return decisionOverhead{}, err
	}
	if err := eng.Start(); err != nil {
		return decisionOverhead{}, err
	}
	defer eng.Stop()

	const monitorPeriod = 250 * time.Millisecond
	db := loaddb.New(0.5)
	mon := live.StartMonitor(eng, db, monitorPeriod)
	defer mon.Stop()
	hist := decision.NewHistory(historySize)
	// Identical generators — the near-1 threshold means the forced
	// rounds below never re-apply — except genOn records into the
	// history.
	gcfg := live.GeneratorConfig{
		Period:               time.Hour,
		CapacityFraction:     0.9,
		ImprovementThreshold: 0.99,
	}
	genOff, err := live.StartGenerator(eng, db, gcfg, core.NewTrafficAware(1.5))
	if err != nil {
		return decisionOverhead{}, err
	}
	defer genOff.Stop()
	gcfg.History = hist
	genOn, err := live.StartGenerator(eng, db, gcfg, core.NewTrafficAware(1.5))
	if err != nil {
		return decisionOverhead{}, err
	}
	defer genOn.Stop()

	// The real reschedule — recorded, so it becomes the sample report.
	deadline := time.Now().Add(10 * time.Second)
	for mon.Samples() < 4 && time.Now().Before(deadline) {
		time.Sleep(monitorPeriod / 5)
	}
	genOn.Reschedule()
	// Capture the sample now: the forced rounds below will rotate the
	// reschedule's report out of the ring.
	var sample *decisionSummary
	if rep, ok := hist.Last(); ok {
		sample = summarize(&rep)
	}
	time.Sleep(lcfg.SpoutHaltDelay + time.Second)

	// measure runs one window, forcing Generate on g at generateHz, and
	// returns the engine's throughput over it.
	measure := func(g *live.Generator) float64 {
		tk := time.NewTicker(time.Duration(float64(time.Second) / generateHz))
		defer tk.Stop()
		end := time.NewTimer(window)
		defer end.Stop()
		t0 := eng.Totals()
		start := time.Now()
		for {
			select {
			case <-tk.C:
				g.Generate()
			case <-end.C:
				return float64(eng.Totals().Sub(t0).Processed) / time.Since(start).Seconds()
			}
		}
	}

	var offRates, onRates, pairRatios []float64
	for i := 0; i < pairs; i++ {
		var off, on float64
		if i%2 == 0 {
			off = measure(genOff)
			on = measure(genOn)
		} else {
			on = measure(genOn)
			off = measure(genOff)
		}
		offRates = append(offRates, off)
		onRates = append(onRates, on)
		if off > 0 {
			pairRatios = append(pairRatios, on/off)
		}
	}

	dec := decisionOverhead{
		Scheduler:       "tstorm",
		OffTuplesPerSec: median(offRates),
		OnTuplesPerSec:  median(onRates),
		GenerateHz:      generateHz,
		HistorySize:     historySize,
	}
	if len(pairRatios) > 0 {
		dec.DeltaFraction = median(pairRatios) - 1
	}
	dec.SampleReport = sample
	return dec, nil
}

// summarize compacts a decision report for the benchmark document.
func summarize(rep *decision.Report) *decisionSummary {
	return &decisionSummary{
		Round:           rep.Round,
		Algorithm:       rep.Algorithm,
		Executors:       rep.Executors,
		NodesUsed:       rep.NodesUsed,
		PredictedBefore: rep.PredictedBefore,
		PredictedAfter:  rep.PredictedAfter,
		Moved:           rep.Moved,
		Relaxations:     rep.Relaxations,
		Applied:         rep.Applied,
		DurationMs:      float64(rep.Duration) / float64(time.Millisecond),
	}
}

// runRecovery runs the reliable self-fed Word Count, crashes one
// bolt-hosting worker once the pipeline is in steady state, and measures
// how long the supervised restart takes to regain 90% of the pre-crash
// throughput — then drains the finite corpus to prove no line was lost.
func runRecovery(seed uint64) (recoveryRun, error) {
	const (
		ackTimeout     = time.Second
		linesPerReader = 40000
		window         = 250 * time.Millisecond
	)
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		return recoveryRun{}, err
	}
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Sink = docstore.NewStore()
	wcfg.Limit = linesPerReader
	wcfg.MaxPending = 256
	app, audit, err := workloads.NewReliableSelfFedWordCount(wcfg)
	if err != nil {
		return recoveryRun{}, err
	}
	lines := wcfg.Spouts * linesPerReader

	in := scheduler.NewInput([]*topology.Topology{app.Topology}, cl, nil, 0)
	initial, err := scheduler.TStormInitial{}.Schedule(in)
	if err != nil {
		return recoveryRun{}, err
	}
	lcfg := live.DefaultConfig()
	lcfg.Seed = seed
	eng, err := live.NewEngine(lcfg, cl)
	if err != nil {
		return recoveryRun{}, err
	}
	if err := eng.Submit(app, initial); err != nil {
		return recoveryRun{}, err
	}
	eng.SetAckTimeout(ackTimeout)
	if err := eng.Start(); err != nil {
		return recoveryRun{}, err
	}
	defer eng.Stop()
	sup := live.StartSupervisor(eng, 0)
	defer sup.Stop()

	rec := recoveryRun{
		Scheduler:    "tstorm",
		AckTimeoutMs: float64(ackTimeout) / float64(time.Millisecond),
		Lines:        lines,
		RecoveryMs:   -1,
	}

	// Steady state, then the pre-crash throughput baseline.
	time.Sleep(time.Second)
	t0 := eng.Totals()
	start := time.Now()
	time.Sleep(time.Second)
	pre := float64(eng.Totals().Sub(t0).Processed) / time.Since(start).Seconds()
	rec.PreCrashTuplesPerSec = pre

	// Crash a worker that hosts split bolts but no reader, so the spouts
	// keep emitting into the outage.
	var victim cluster.SlotID
	hasReader := map[cluster.SlotID]bool{}
	for _, p := range eng.Placement() {
		if p.Executor.Component == "reader" {
			hasReader[p.Slot] = true
		}
	}
	for _, p := range eng.Placement() {
		if p.Executor.Component == "split" && !hasReader[p.Slot] {
			victim = p.Slot
			break
		}
	}
	if victim == (cluster.SlotID{}) {
		return rec, fmt.Errorf("no bolt-only slot to crash")
	}
	crashAt := time.Now()
	eng.CrashWorker(victim)

	// Poll short windows until throughput regains 90% of the baseline.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w0 := eng.Totals()
		ws := time.Now()
		time.Sleep(window)
		rate := float64(eng.Totals().Sub(w0).Processed) / time.Since(ws).Seconds()
		if rate >= 0.9*pre {
			rec.RecoveryMs = float64(time.Since(crashAt)) / float64(time.Millisecond)
			break
		}
	}

	// Drain the corpus: with a finite limit, the readers stop once every
	// line is acked, so outstanding hitting zero means at-least-once held.
	drainDeadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(drainDeadline) {
		if audit.OutstandingLines() == 0 && audit.AckedLines() == lines {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	rec.LostRoots = lines - audit.AckedLines()

	t := eng.Totals()
	rec.Replays = t.Replayed
	rec.FailedRoots = t.FailedRoots
	rec.WorkerCrashes = t.WorkerCrashes
	rec.WorkerRestarts = t.WorkerRestarts
	return rec, nil
}
