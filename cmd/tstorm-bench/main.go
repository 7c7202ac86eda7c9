// Command tstorm-bench regenerates the paper's tables and figures, and
// benchmarks the live (wall-clock) runtime.
//
// Usage:
//
//	tstorm-bench [-fig 5] [-duration 1000s] [-seed 1] [-csv dir]
//	tstorm-bench -live [-duration 3s] [-json BENCH_live.json] [-telemetry addr] [-health]
//	tstorm-bench -backend dist [-duration 3s] [-json BENCH_live.json]
//	tstorm-bench -arena [-duration 2s] [-json BENCH_live.json]
//
// Without -fig it regenerates every figure in order. With -csv the series
// are also written as CSV files into the given directory. With -live it
// instead runs the self-fed Word Count on the goroutine execution engine
// under the default scheduler versus T-Storm, measuring real throughput,
// end-to-end latency (p50/p95/p99 per phase), peak queue depth, and
// inter-node traffic; -json writes the results as a JSON report including
// a telemetry-on vs telemetry-off throughput comparison. With -telemetry
// the observability endpoints are additionally served on the given
// address for the duration of each run. With -health a further off/on
// pair measures what the health sampler (tsdb collector + SLO engine on
// a 100 ms cadence, 10× production) costs the pipeline, against a 3%
// budget; -json records it as a "health_overhead" section. With -backend dist the benchmark
// instead runs on the multi-process backend: real worker processes
// (this binary re-executed) exchanging tuples over loopback TCP, with a
// kill -9 recovery phase; -json merges a "distributed" section into the
// live report. With -arena every registered scheduling algorithm — the
// builtins plus Algorithm 1 — is vetted on a two-topology input and then
// run over the same live workload, ranked by throughput with p99 latency,
// inter-node traffic, and decision-latency columns; -json merges an
// "arena" section into the live report.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tstorm/internal/dist"
	"tstorm/internal/experiment"
)

func main() {
	// MUST run before anything else (flag parsing included): when the
	// -backend dist benchmark re-executes this binary as a worker
	// process, this call takes over and never returns.
	dist.RunWorkerIfChild()

	fig := flag.String("fig", "", "figure ID to regenerate (table2,2,3,5,6,8,9,10,headline,baselines,gamma); empty = all")
	duration := flag.Duration("duration", 0, "override run duration (0 = paper durations)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV series into")
	liveMode := flag.Bool("live", false, "benchmark the live (wall-clock) runtime instead of regenerating figures")
	arenaMode := flag.Bool("arena", false, "rank every registered scheduling algorithm over the live workload")
	backend := flag.String("backend", "live", "execution backend for the live benchmark: live (in-process goroutines) or dist (real worker processes on loopback TCP)")
	jsonPath := flag.String("json", "", "path to write the live benchmark report as JSON (with -live or -arena)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /debug/placement, /debug/trace on this address during -live runs (e.g. 127.0.0.1:9090)")
	healthMode := flag.Bool("health", false, "with -live: additionally measure the health-sampler overhead (observability layer on vs off, 3% budget)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (all allocs since start) to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tstorm-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tstorm-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tstorm-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accurate alloc stats before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "tstorm-bench:", err)
			}
		}()
	}

	var err error
	switch {
	case *backend == "dist":
		err = runDist(*duration, *seed, *jsonPath)
	case *backend != "live":
		err = fmt.Errorf("unknown backend %q (have live, dist)", *backend)
	case *arenaMode:
		err = runArena(*duration, *seed, *jsonPath)
	case *liveMode:
		err = runLive(*duration, *seed, *jsonPath, *telemetryAddr, *healthMode)
	default:
		err = run(*fig, *duration, *seed, *csvDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tstorm-bench:", err)
		os.Exit(1)
	}
}

func run(fig string, duration time.Duration, seed uint64, csvDir string) error {
	gens := experiment.Generators()
	ids := experiment.GeneratorIDs()
	if fig != "" {
		if _, ok := gens[fig]; !ok {
			return fmt.Errorf("unknown figure %q (have %v)", fig, ids)
		}
		ids = []string{fig}
	}
	opt := experiment.Options{Duration: duration, Seed: seed}
	for _, id := range ids {
		start := time.Now()
		figure, err := gens[id](opt)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if err := figure.Render(os.Stdout); err != nil {
			return err
		}
		logScale := id == "9" || id == "10" || id == "3"
		if err := figure.Chart(os.Stdout, 12, logScale); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		var events uint64
		for _, res := range figure.Results {
			events += res.SimEvents
		}
		if events == 0 {
			fmt.Printf("(regenerated in %.1fs wall time)\n\n", wall)
		} else {
			// The simulator's own speed, where people run it: a slow kernel
			// shows here, not only in bench/.
			fmt.Printf("(regenerated in %.1fs wall time: %.2f M simulated events, %.2f M events/s)\n\n",
				wall, float64(events)/1e6, float64(events)/1e6/wall)
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, "fig"+id+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := figure.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	return nil
}
