// Command tstorm-sim runs one experiment and prints its result: the
// 1-minute processing-time series, node usage, re-assignment events and a
// summary, optionally as CSV.
//
// Usage:
//
//	tstorm-sim -workload wordcount -scheduler tstorm -gamma 1.8 \
//	           -duration 1000s -nodes 10 -seed 1 [-rate 120] [-workers 0] [-csv]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tstorm/internal/experiment"
	"tstorm/internal/trace"
)

func main() {
	workload := flag.String("workload", "wordcount", "workload: throughput | wordcount | logstream | chain")
	sched := flag.String("scheduler", "tstorm", "scheduler: storm-default | tstorm | aniello-online | aniello-offline")
	gamma := flag.Float64("gamma", 1.5, "consolidation factor γ (tstorm only)")
	duration := flag.Duration("duration", 0, "run length (0 = 1000s)")
	nodes := flag.Int("nodes", 0, "cluster size (0 = 10)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	rate := flag.Float64("rate", 0, "feed rate in lines/s for queue-fed workloads (0 = default)")
	workers := flag.Int("workers", 0, "override requested worker count N_u (0 = workload default)")
	csv := flag.Bool("csv", false, "emit the latency series as CSV instead of a table")
	showTrace := flag.Bool("trace", false, "print the structured runtime event trace")
	asJSON := flag.Bool("json", false, "emit the full result as JSON")
	seeds := flag.Int("seeds", 1, "run this many seeds and report mean ± stddev")
	flag.Parse()

	var rec *trace.Recorder
	if *showTrace {
		rec = trace.NewRecorder(100000)
	}

	if *seeds > 1 {
		cfg := experiment.Config{
			Name:      "cli",
			Workload:  experiment.WorkloadKind(*workload),
			Scheduler: experiment.SchedulerKind(*sched),
			Gamma:     *gamma,
			Nodes:     *nodes,
			Duration:  *duration,
			FeedRate:  *rate,
			Workers:   *workers,
		}
		list := make([]uint64, *seeds)
		for i := range list {
			list[i] = *seed + uint64(i)
		}
		mr, err := experiment.RunSeeds(cfg, list)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tstorm-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("workload=%s scheduler=%s seeds=%d\n", *workload, *sched, *seeds)
		fmt.Printf("  stable mean (ms): %s\n", mr.StableMean)
		fmt.Printf("  final nodes:      %s\n", mr.FinalNodes)
		fmt.Printf("  failed tuples:    %s\n", mr.Failed)
		fmt.Printf("  dropped messages: %s\n", mr.Dropped)
		return
	}

	start := time.Now()
	res, err := experiment.Run(experiment.Config{
		Name:      "cli",
		Workload:  experiment.WorkloadKind(*workload),
		Scheduler: experiment.SchedulerKind(*sched),
		Gamma:     *gamma,
		Nodes:     *nodes,
		Duration:  *duration,
		Seed:      *seed,
		FeedRate:  *rate,
		Workers:   *workers,
		Trace:     rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tstorm-sim:", err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "tstorm-sim:", err)
			os.Exit(1)
		}
		return
	}
	if *csv {
		fmt.Println("t_seconds,mean_ms,count,max_ms")
		for _, p := range res.Latency {
			fmt.Printf("%.0f,%.6f,%d,%.6f\n", p.Start.Seconds(), p.Mean, p.Count, p.Max)
		}
		return
	}

	fmt.Printf("workload=%s scheduler=%s", *workload, *sched)
	if experiment.SchedulerKind(*sched) == experiment.SchedTStorm {
		fmt.Printf(" γ=%g", *gamma)
	}
	fmt.Println()
	fmt.Printf("%8s  %12s  %8s  %10s\n", "t(s)", "avg-proc(ms)", "samples", "max(ms)")
	for _, p := range res.Latency {
		fmt.Printf("%8.0f  %12.3f  %8d  %10.1f\n", p.Start.Seconds(), p.Mean, p.Count, p.Max)
	}
	fmt.Println()
	for _, s := range res.Nodes {
		fmt.Printf("nodes in use from %6.0fs: %g\n", s.At.Seconds(), s.Value)
	}
	for _, ev := range res.Reassignments {
		fmt.Printf("assignment published at %6.0fs: %d nodes, %d slots\n",
			ev.At.Seconds(), ev.UsedNodes, ev.UsedSlots)
	}
	fmt.Println()
	fmt.Printf("stable mean      %10.3f ms (after stabilization)\n", res.StableMean)
	fmt.Printf("p50 / p99        %10.3f / %.3f ms (whole run)\n", res.P50, res.P99)
	fmt.Printf("roots emitted    %10d\n", res.RootsEmitted)
	fmt.Printf("completions      %10d (%d late)\n", res.Completions, res.LateCompletions)
	fmt.Printf("failed           %10d\n", res.Failed)
	fmt.Printf("dropped messages %10d\n", res.Dropped)
	if res.SinkWrites > 0 {
		fmt.Printf("sink writes      %10d\n", res.SinkWrites)
	}
	fmt.Printf("sim events       %10d (%.2f M events/s over %.1f s wall)\n",
		res.SimEvents, float64(res.SimEvents)/1e6/wall, wall)

	fmt.Println("\nfinal placement:")
	for _, row := range res.Placement {
		fmt.Printf("  %-10s %d slot(s), %2d executors\n", row.Node, row.Slots, row.Executors)
	}
	fmt.Println("\nper-component stats:")
	names := make([]string, 0, len(res.Components))
	for name := range res.Components {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  %-14s %12s %12s %14s\n", "component", "executed", "emitted", "cpu-seconds")
	for _, name := range names {
		cs := res.Components[name]
		fmt.Printf("  %-14s %12d %12d %14.2f\n", name, cs.Executed, cs.Emitted, cs.CPUCycles/2000e6)
	}

	if rec != nil {
		fmt.Println("\ntrace:")
		for _, ev := range rec.Events() {
			fmt.Println("  " + ev.String())
		}
		if rec.Dropped() > 0 {
			fmt.Printf("  (%d earlier events evicted)\n", rec.Dropped())
		}
	}
}
