package main

import (
	"fmt"
	"time"

	"tstorm/internal/live"
	"tstorm/internal/scheduler"
)

// live-paced: open loop, anchored, in-process engine under a fixed
// placement. The same emit/route/queue/ack layers as live-sat, used the
// opposite way: queues near empty, latency- rather than CPU-bound. The
// readers emit on a schedule that does not slow when the engine does, and
// each line is timed from the instant it was due to its Ack.

// ladder is the offered load in lines/s summed over both readers
// (≈ 11 words a line, so ≈ 90k–650k tuples/s). Frozen: a later change
// that moves a rung is comparing different experiments.
var ladder = []float64{4000, 8000, 12000, 16000, 20000, 24000, 28000}

const (
	// headlineRung is the rung whose latency is the workload's
	// end-to-end latency. At 8000 lines/s the two cores are ~40 % busy:
	// latency is the sum of the path's waits, and the median sub-window
	// p99 repeats within ±4 % run to run. At 12000 (~60 % busy) a noisy
	// neighbour on the shared box moves the same figure by 2×.
	headlineRung = 8000

	// headlineShare of -seconds goes to the headline rung, the rest is
	// split evenly over the other rungs: the end-to-end latencies need
	// many sub-windows, the knee only needs each rung to show whether
	// its backlog grows.
	headlineShare = 0.4

	pacedSettleShare = 0.2 // of a rung: unmeasured, at most pacedSettleMax
	pacedSettleMax   = 500 * time.Millisecond
	pacedWarmLines   = 2000 // acked, closed loop, before the first rung
	pacedWarmPending = 256

	// A rung is sustainable when all three hold.
	sustainP99Ms     = 100.0
	sustainLagP99Ms  = 10.0 // also the validity limit: above it the generator, not the engine, set the latency
	sustainGrowShare = 0.02 // backlog growth across the window ÷ lines offered in it
)

type rungResult struct {
	rate           float64
	st             genStats
	win            liveWindow
	backlogEnd     int64
	backlogGrowth  float64 // second-half mean − first-half mean, in roots
	offered        float64 // lines due in the measured window
	from, to       int64   // the measured window, Unix ns
	valid, sustain bool
}

func runLivePaced(o opts) (*result, error) {
	res := &result{Workload: "live-paced"}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	cfg := live.DefaultConfig()
	cfg.MaxPending = 0 // open loop: nothing may gate the readers
	rig, setups, err := setupMedian(o.setups, func() (*liveRig, error) {
		rig, err := newLiveRig(o.seed, true, scheduler.TStormInitial{}, cfg, tr)
		if err != nil {
			return nil, err
		}
		// Warm up in a bounded closed loop, then lift the bound: the
		// measured rungs are open loop.
		rig.eng.SetMaxPending(pacedWarmPending)
		rig.gen.closedLoop()
		for rig.eng.Totals().Acked < pacedWarmLines {
			time.Sleep(time.Millisecond)
		}
		rig.gen.stop()
		if !drained(rig, 10*time.Second) {
			rig.eng.Stop()
			return nil, fmt.Errorf("warm-up did not drain")
		}
		rig.eng.SetMaxPending(0)
		return rig, nil
	}, func(r *liveRig) { r.eng.Stop() })
	if err != nil {
		return nil, err
	}
	defer rig.eng.Stop()
	res.setSamples("setup_s", "s", setups)
	rig.gen.harvest() // discard the warm-up's samples
	if tr != nil {
		tr.drain()
	}

	var rungs []rungResult
	for _, rate := range ladder {
		total := o.share((1 - headlineShare) / float64(len(ladder)-1))
		if rate == headlineRung {
			total = o.share(headlineShare)
		}
		settle := min(time.Duration(pacedSettleShare*float64(total)), pacedSettleMax)
		rr, err := runRung(rig, rate, settle, total-settle)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, rr)
		if !drained(rig, 30*time.Second) {
			res.problem("rung %.0f: backlog did not drain", rate)
		}
		// The drain has delivered every Ack the rung was owed; only now
		// is its latency histogram complete.
		rungs[len(rungs)-1].st = rig.gen.harvest()
	}
	drainAndCheck(rig, res, "live-paced")

	var tuples, secs, cpuS, lagP99Max, lagMax float64
	invalid := 0
	sustainable := 0.0
	var all []span
	if tr != nil {
		all = tr.drain()
	}
	for i := range rungs {
		r := &rungs[i]
		tag := fmt.Sprintf(".r%.0f", r.rate)
		p50s, p99s := subQuantiles(r.st.latSub, 0.5), subQuantiles(r.st.latSub, 0.99)
		p50, p99 := median(p50s), median(p99s)
		okP99 := len(p99s) > 0
		lagP99, _ := r.st.lag.quantile(0.99)
		r.valid = median(subQuantiles(r.st.lagSub, 0.99))/1e6 <= sustainLagP99Ms
		growShare := r.backlogGrowth / r.offered
		r.sustain = r.valid && okP99 && p99/1e6 <= sustainP99Ms && growShare <= sustainGrowShare
		res.setN("live.paced_p50_ms"+tag, "ms", p50/1e6, int(r.st.lat.n))
		res.setN("live.paced_p99_ms"+tag, "ms", p99/1e6, int(r.st.lat.n))
		res.set("live.paced_backlog_roots"+tag, "count", float64(r.backlogEnd))
		if !r.valid {
			// The generator ran late: these latencies are the bench's,
			// not the engine's.
			invalid++
			res.note("live.paced_p50_ms"+tag, "invalid: generator lag")
			res.note("live.paced_p99_ms"+tag, "invalid: generator lag")
		}
		if r.sustain && r.rate > sustainable {
			sustainable = r.rate
		}
		lagP99Max = max(lagP99Max, lagP99/1e6)
		lagMax = max(lagMax, float64(r.st.lag.max)/1e6)
		tuples += float64(r.win.tot.Processed)
		secs += r.win.secs
		cpuS += r.win.cpu.cpuS()
		if r.rate == headlineRung {
			res.setQuiet("latency_p50_ms", "ms", scale(p50s, 1e-6), true)
			res.setQuiet("latency_tail_ms", "ms", scale(p99s, 1e-6), true)
			res.note("latency_tail_ms", "p99, quiet decile")
			for _, comp := range sortedKeys(r.win.busy) {
				res.set("live.busy_share."+comp, "ratio", r.win.busy[comp])
			}
		}
	}
	res.tputTps = tuples / secs
	res.set("throughput_per_s", "1/s", tuples/secs)
	res.set("cpu_us_per_unit", "us", cpuS*1e6/tuples)
	res.set("live.sustainable_lps", "1/s", sustainable)
	res.set("live.invalid_rungs", "count", float64(invalid))
	res.set("live.gen_lag_p99_ms", "ms", lagP99Max)
	res.set("live.gen_lag_max_ms", "ms", lagMax)
	top := rungs[len(rungs)-1].win
	res.set("live.queue_peak_batches", "count", float64(top.queuePk))
	res.set("live.queue_saturated_fraction", "ratio", top.queueSat)

	tot := rig.eng.Totals()
	gs := rig.gen.harvest()
	res.Attempted = gs.emitted
	// A line fails if it was never acked, timed out (nothing here injects
	// a fault, so no timeout is excusable), or lost tuples on the way.
	res.Failed += gs.emitted - gs.acked + gs.timedOut + tot.Dropped
	liveTotalsMetrics(res, tot)
	procMetrics(res)
	if tr != nil {
		for i := range rungs {
			if r := &rungs[i]; r.rate == headlineRung {
				traceMetrics(res, o, all, r.from, r.to, tr.emitNs)
				// The spans account for a line's latency when the sampled
				// trees' critical chains (generator lag included: a root
				// span starts when its line was due) sum to what all
				// lines saw.
				self, _ := res.get("live.path_self_ms")
				wait, _ := res.get("live.path_wait_ms")
				if p50, ok := r.st.lat.quantile(0.5); ok {
					res.set("live.trace_accounted_fraction", "ratio", (self+wait)/(p50/1e6))
				}
			}
		}
		rig.eng.Stop() // the probes want the cores to themselves
		ackPathProbes(res)
	}
	return res, nil
}

// runRung offers one rate and watches the engine through its measured
// window.
func runRung(rig *liveRig, rate float64, settle, measure time.Duration) (rungResult, error) {
	rr := rungResult{rate: rate, offered: rate * measure.Seconds()}
	rig.gen.pace(rate, settle, measure)
	time.Sleep(settle)
	var first, second []float64
	start := time.Now()
	rr.from = start.UnixNano()
	win, err := measureLive(rig, measure, func(now time.Time) {
		b := float64(rig.eng.PendingRoots())
		if now.Sub(start) < measure/2 {
			first = append(first, b)
		} else {
			second = append(second, b)
		}
	})
	if err != nil {
		return rr, err
	}
	rr.win = win
	rr.to = time.Now().UnixNano()
	rr.backlogEnd = rig.eng.PendingRoots()
	rr.backlogGrowth = mean(second) - mean(first)
	rig.gen.stop()
	return rr, nil
}

// drained waits until every emitted line has been acked and the engine
// holds no tuple.
func drained(rig *liveRig, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if rig.gen.owed() == 0 && rig.eng.PendingRoots() == 0 && rig.eng.Quiesce(10*time.Millisecond) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// subQuantiles returns the q-quantile of every sub-window that has
// enough samples to support it. Reporting the median of these, not the
// quantile of the pooled window, keeps one scheduling stall on a shared
// box from deciding the whole figure.
func subQuantiles(subs []*hist, q float64) []float64 {
	var out []float64
	for _, h := range subs {
		if v, ok := h.quantile(q); ok {
			out = append(out, v)
		}
	}
	return out
}

func scale(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
