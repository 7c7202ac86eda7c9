// Distributed runtime example: the self-fed Word Count on REAL worker
// processes. The driver spawns one OS process per slot (this same
// binary, re-executed); executors exchange tuples over loopback TCP
// using the live binary codec, each worker's monitor ships measured
// traffic windows up the control plane, and the unchanged T-Storm stack
// (EWMA load DB → Algorithm 1) reschedules the fleet — migrating
// executors between processes with the paper's §IV-D smoothing. Then a
// worker is killed with a real SIGKILL and the supervisor respawns it.
//
//	go run ./examples/distributed [-telemetry 127.0.0.1:0]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"tstorm"
	"tstorm/internal/docstore"
	"tstorm/internal/trace"
	"tstorm/internal/workloads"
)

func fetch(addr, path string) (string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func main() {
	// MUST run before anything else: when the driver re-executes this
	// binary as a worker, this call takes over the process.
	tstorm.RunDistWorkerIfChild()

	telemetryAddr := flag.String("telemetry", "127.0.0.1:0", "address for the telemetry endpoints")
	flag.Parse()

	// The workload is submitted BY NAME: every worker process rebuilds it
	// from the same registration, so the only things crossing the control
	// plane are the name, the JSON params, and the assignment.
	params := workloads.SelfFedParams{Spouts: 2, Splitters: 4, Counters: 4, Mongos: 2, Workers: 3}
	rec := tstorm.NewTraceRecorder(2048)
	eng, err := tstorm.NewDistEngine(tstorm.DistConfig{
		Nodes: 3,
		Trace: rec,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Build the same topology locally just to compute the traffic-oblivious
	// round-robin starting placement (the driver re-validates on Submit).
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Spouts, wcfg.Splitters, wcfg.Counters, wcfg.Mongos, wcfg.Workers =
		params.Spouts, params.Splitters, params.Counters, params.Mongos, params.Workers
	wcfg.Sink = docstore.NewStore()
	app, err := workloads.NewSelfFedWordCount(wcfg)
	if err != nil {
		log.Fatal(err)
	}
	initial, err := tstorm.DefaultSchedule(app.Topology, eng.Cluster())
	if err != nil {
		log.Fatal(err)
	}

	if err := eng.Submit(workloads.SelfFedWorkload, params, initial); err != nil {
		log.Fatal(err)
	}
	fmt.Println("distributed Word Count: spawning 3 worker processes on loopback TCP…")
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	// The same Wire call as every other backend: monitors (running inside
	// the workers, reporting over the control plane), load DB, Algorithm 1.
	stack, err := tstorm.Wire(eng,
		tstorm.WithMonitorPeriod(250*time.Millisecond),
		tstorm.WithGeneratePeriod(time.Hour),
		tstorm.WithDecisionHistory(8))
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Stop() //nolint:errcheck // idempotent, never fails

	srv, err := stack.StartTelemetry(*telemetryAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("  telemetry: http://%s/metrics  /debug/workers  /debug/placement  /debug/trace\n", srv.Addr())

	for _, w := range eng.Workers() {
		fmt.Printf("  worker %-14s pid %-7d data %s\n", w.Slot, w.PID, w.DataAddr)
	}

	measure := func(label string) tstorm.LiveTotals {
		time.Sleep(time.Second) // settle
		t0 := eng.Totals()
		start := time.Now()
		time.Sleep(2 * time.Second)
		w := eng.Totals().Sub(t0)
		secs := time.Since(start).Seconds()
		fmt.Printf("  %-18s %9.0f tuples/s   inter-process traffic %5.1f%%\n",
			label, float64(w.Processed)/secs, 100*w.InterNodeFraction())
		return w
	}

	before := measure("round-robin:")

	// Give the worker monitors a few windows, then force one Algorithm 1
	// pass. The migration crosses real process boundaries: spouts halt
	// fleet-wide, the queues drain, the new assignment publishes through
	// the coordination store, and every worker re-routes.
	for !stack.DB.HasData() {
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(time.Second)
	if !stack.Generator.Reschedule() {
		log.Fatal("reschedule applied nothing")
	}
	fmt.Printf("  T-Storm reschedule migrated %d executors across processes (generation %d)\n",
		eng.Totals().Migrations, eng.Generation())

	after := measure("traffic-aware:")
	if before.TuplesSent > 0 && after.TuplesSent > 0 {
		fmt.Printf("  measured inter-process traffic: %.1f%% -> %.1f%%\n",
			100*before.InterNodeFraction(), 100*after.InterNodeFraction())
	}

	// kill -9 a worker process for real; the supervisor respawns it with
	// exponential backoff and the driver reconfigures the newcomer.
	victim := eng.Workers()[1]
	fmt.Printf("\n  SIGKILL worker %s (pid %d)…\n", victim.Slot, victim.PID)
	crashAt := time.Now()
	eng.CrashWorker(victim.Slot)
	for {
		ws := eng.Workers()
		recovered := false
		for _, w := range ws {
			if w.Slot == victim.Slot && w.Alive && w.Restarts >= 1 {
				recovered = true
			}
		}
		if recovered {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("  respawned and reconfigured in %s\n", time.Since(crashAt).Round(time.Millisecond))
	for _, r := range eng.History() {
		fmt.Printf("    restart %s attempt %d: backoff %s, waited %s\n",
			r.Slot, r.Attempt, r.Backoff, r.Waited.Round(time.Millisecond))
	}

	workers, err := fetch(srv.Addr(), "/debug/workers")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  /debug/workers: %s\n", strings.TrimSpace(workers))

	fmt.Println("\n  fleet timeline (from the trace recorder):")
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.WorkerStarted, trace.WorkerKilled, trace.WorkerRestarted,
			trace.WorkerRejoined, trace.AssignmentPublished, trace.ReassignApplied,
			trace.SpoutsHalted, trace.SpoutsResumed, trace.QueuesDrained:
			fmt.Println("    " + ev.String())
		}
	}

	tot := eng.Totals()
	fmt.Println("\noutcome:")
	fmt.Printf("  tuples processed across the fleet: %d\n", tot.Processed)
	fmt.Printf("  process crashes: %d, supervised respawns: %d\n", tot.WorkerCrashes, tot.WorkerRestarts)
	fmt.Printf("  executors migrated between processes: %d\n", tot.Migrations)
}
