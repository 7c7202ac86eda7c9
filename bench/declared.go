package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// decl declares one metric of the contract.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// defaultSeconds is run_seconds in BENCHMARK.json: the measured time of
// one workload pass.
const defaultSeconds = 20

// endToEnd is reported by every workload on an untraced pass; README.md
// says what each metric means on each workload. A bound is the share of
// the parent's median by which a metric may worsen before a change is
// rejected; README.md records the A/A spreads they were set from.
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_unit", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is reported on a traced pass. A workload that bypasses a
// layer reports 0 for that layer's metrics: the layer did no work.
// README.md maps each to the end-to-end metric it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	var out []decl
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, decl{Name: n, Unit: unit, Better: better})
		}
	}
	// live: placement quality and the reschedule.
	add("higher", "1/s", "live.default_tps")
	add("higher", "ratio", "live.tstorm_speedup_x")
	add("lower", "ratio", "live.inter_node_fraction.default", "live.inter_node_fraction.tstorm", "live.inter_process_fraction.tstorm")
	add("lower", "count", "live.migrations")
	add("lower", "ms", "live.apply_ms")
	// live: queues and who is busy.
	add("lower", "count", "live.queue_peak_batches")
	add("lower", "ratio", "live.queue_saturated_fraction")
	add("lower", "ratio", "live.busy_share.reader", "live.busy_share.split", "live.busy_share.count", "live.busy_share.mongo")
	// live: counters.
	add("higher", "ratio", "live.pool_hit_ratio", "live.ctl_combined_ratio")
	add("higher", "count", "live.acked")
	add("lower", "count", "live.failed_roots", "live.replayed", "live.late_acked", "live.dropped")
	// live: the open-loop ladder.
	for _, r := range ladder {
		tag := fmt.Sprintf(".r%.0f", r)
		add("lower", "ms", "live.paced_p50_ms"+tag, "live.paced_p99_ms"+tag)
		add("lower", "count", "live.paced_backlog_roots"+tag)
	}
	add("higher", "1/s", "live.sustainable_lps")
	add("lower", "count", "live.invalid_rungs")
	add("lower", "ms", "live.gen_lag_p99_ms", "live.gen_lag_max_ms")
	// live: the control plane as the live engine pays for it.
	add("lower", "ms", "live.monitor_sample_ms", "live.generate_ms")
	add("higher", "ratio", "live.predicted_vs_observed")
	// live: traced pass.
	add("lower", "ns", "live.codec_encode_ns_per_tuple", "live.codec_decode_ns_per_tuple", "live.ingest_ns_per_tuple", "live.emit_call_ns_p50")
	add("lower", "B", "live.codec_bytes_per_tuple")
	add("higher", "count", "live.frame_tuples_per_frame")
	add("lower", "ms", "live.hop_wait_ms.p50", "live.hop_wait_ms.p99", "live.path_self_ms", "live.path_wait_ms")
	add("higher", "ratio", "live.trace_accounted_fraction")
	add("lower", "ratio", "live.trace_overhead_fraction", "live.framework_overhead_x")
	// dist.
	add("lower", "s", "dist.spawn_s")
	add("lower", "ratio", "dist.inter_process_fraction", "dist.sys_cpu_fraction", "dist.driver_cpu_share")
	add("lower", "count", "dist.ctx_switches_per_ktuple")
	add("lower", "ms", "dist.totals_rpc_ms", "dist.apply_ms", "dist.recovery_ms", "dist.gen_lag_p99_ms")
	add("lower", "count", "dist.respawns", "dist.replayed", "dist.lost_roots")
	// core, scheduler, decision, loaddb.
	add("lower", "ms", "core.tstorm_round_ms.ne12", "core.tstorm_round_ms.ne1000", "core.tstorm_round_ms.ne10000")
	add("lower", "count", "core.tstorm_allocs_per_round.ne1000")
	for _, a := range []string{"rstorm", "hetero", "aniello-online", "aniello-offline", "load-balanced", "default", "tstorm-initial"} {
		add("lower", "ms", "scheduler.round_ms."+a+".ne1000")
	}
	add("lower", "ms", "scheduler.round_ms.rstorm.ne10000", "scheduler.round_ms.hetero.ne10000")
	for _, a := range []string{"tstorm", "rstorm", "hetero", "default"} {
		add("lower", "ratio", "scheduler.predicted_inter_node_fraction."+a+".ne1000")
	}
	add("lower", "count", "scheduler.nodes_used.tstorm.ne1000")
	add("lower", "ms", "scheduler.new_input_ms.ne10000", "loaddb.apply_window_ms.ne10000", "loaddb.snapshot_ms.ne10000")
	add("lower", "ratio", "decision.probe_overhead_x.ne1000")
	add("lower", "us", "control.loaddb.snapshot_us", "control.scheduler.new_input_us", "control.core.schedule_us", "control.engine.apply_us")
	// sim, engine.
	add("higher", "1/s", "sim.events_per_s")
	add("higher", "ratio", "sim.speed_x")
	add("lower", "ns", "sim.schedule_fire_ns")
	add("lower", "count", "engine.sim_events", "engine.failed", "engine.reassignments", "engine.final_nodes.tstorm")
	add("higher", "count", "engine.completions")
	add("lower", "ms", "engine.stable_mean_ms.tstorm", "engine.stable_mean_ms.default")
	// the ack and observability paths, per call.
	add("lower", "ns", "acker.tree_ns", "metrics.atomichist_add_ns", "tsdb.append_ns", "tracing.ring_push_ns")
	add("lower", "ms", "telemetry.scrape_ms")
	add("lower", "B", "telemetry.scrape_bytes")
	add("lower", "us", "health.tick_us")
	// the operators themselves: the floor under cpu_us_per_unit.
	add("lower", "ns", "workloads.split_ns_per_line", "workloads.count_ns_per_word", "workloads.sink_ns_per_word")
	// process.
	add("lower", "MB", "proc.peak_rss_mb")
	add("lower", "ratio", "proc.gc_cpu_fraction")
	return out
}

// manifestDoc is BENCHMARK.json.
func manifestDoc() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range allWorkloads {
		wls = append(wls, wl{w.name, w.why})
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layer
	for _, d := range perLayer {
		layers = append(layers, layer{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": defaultSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}
}

// summaryLine is the driver's last-line JSON: the end-to-end metrics of
// an untraced pass, the per-layer metrics of a traced one.
func summaryLine(res *result, traced bool) string {
	list := endToEnd
	if traced {
		list = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(list))
	for _, d := range list {
		v, _ := res.get(d.Name) // a bypassed layer's metric reads 0
		ms[d.Name] = val{v, d.Unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   ms,
	})
	if err != nil {
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return string(raw)
}

// runPass runs one workload. An untraced pass is the workload as is. A
// traced pass runs it twice at half length — untraced, then decorated —
// so the per-layer counters come from an undisturbed engine, the spans
// from the decorated one, and the difference between the two is the cost
// of tracing.
func runPass(w workload, o opts) (*result, error) {
	if !o.traced {
		return w.run(o)
	}
	half := o
	half.seconds /= 2
	half.setups = 1
	half.traced = false
	plain, err := w.run(half)
	if err != nil {
		return nil, err
	}
	half.traced = true
	traced, err := w.run(half)
	if err != nil {
		return nil, err
	}
	return mergeTraced(plain, traced), nil
}

// mergeTraced folds a traced pass into the untraced pass before it:
// metrics only the traced pass has are added, and its failures count.
func mergeTraced(plain, traced *result) *result {
	for _, m := range traced.Metrics {
		if plain.index(m.Name) < 0 {
			plain.Metrics = append(plain.Metrics, m)
		}
	}
	if plain.tputTps > 0 && traced.tputTps > 0 {
		plain.set("live.trace_overhead_fraction", "ratio", 1-traced.tputTps/plain.tputTps)
	}
	plain.Attempted += traced.Attempted
	plain.Failed += traced.Failed
	plain.Problems = append(plain.Problems, traced.Problems...)
	return plain
}

// runAA measures the benchmark against itself: sets complete untraced
// sets of the same code, back to back, then for every workload and
// end-to-end metric each pair of consecutive sets side by side with their
// relative difference and the metric's bound. It returns the exit code:
// non-zero when a pair disagrees by more than its bound (the bounds are
// meant for medians of ten runs, so a single pair inside them is the
// stricter test) or a set failed a correctness check.
func runAA(o opts, only string, sets int) int {
	type key struct{ workload, metric string }
	vals := make(map[key][]float64)
	code := 0
	for i := 0; i < sets; i++ {
		for _, w := range allWorkloads {
			if only != "" && w.name != only {
				continue
			}
			fmt.Fprintf(os.Stderr, "bench: A/A set %d of %d: %s\n", i+1, sets, w.name)
			res, err := w.run(o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			if res.Failed > 0 {
				res.print(os.Stdout)
				code = 1
			}
			for _, d := range endToEnd {
				v, _ := res.get(d.Name)
				vals[key{w.name, d.Name}] = append(vals[key{w.name, d.Name}], v)
			}
		}
	}
	fmt.Printf("%-11s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set n", "set n+1", "rel.diff", "bound")
	for _, w := range allWorkloads {
		for _, d := range endToEnd {
			v := vals[key{w.name, d.Name}]
			for i := 0; i+1 < len(v); i++ {
				diff := math.Abs(v[i+1]-v[i]) / math.Abs(v[i])
				verdict := ""
				if diff > d.Bound {
					verdict = "  DISAGREE"
					code = 1
				}
				fmt.Printf("%-11s %-18s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", w.name, d.Name, v[i], v[i+1], 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	return code
}
