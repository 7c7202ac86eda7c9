// Command tstorm-bench regenerates the paper's tables and figures, and
// ranks the registered scheduling algorithms on the live runtime.
//
// Usage:
//
//	tstorm-bench [-fig 5[,6...]] [-duration 1000s] [-seed 1] [-csv dir]
//	tstorm-bench -arena [-duration 2s] [-seed 1]
//
// Without -fig it regenerates every figure; the figures run on GOMAXPROCS
// workers and print in presentation order. With -csv the series are also
// written as CSV files into the given directory. With -arena every
// registered scheduling algorithm — the builtins plus Algorithm 1 — is run
// over the same live workload and ranked by throughput with p99 latency,
// inter-node traffic, and decision-latency columns. The wall-clock
// backends' benchmark is bench/ (bash bench/run.sh).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"tstorm/internal/experiment"
)

// The flags live at package level so that tests can look them up.
var (
	fig        = flag.String("fig", "", "comma-separated figure IDs to regenerate (table2,2,3,5,6,8,9,10,headline,baselines,gamma); empty = all")
	duration   = flag.Duration("duration", 0, "override run duration (0 = paper durations)")
	seed       = flag.Uint64("seed", 1, "simulation seed")
	csvDir     = flag.String("csv", "", "directory to write per-figure CSV series into")
	arenaMode  = flag.Bool("arena", false, "rank every registered scheduling algorithm over the live workload")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile = flag.String("memprofile", "", "write an allocation profile (all allocs since start) to this file at exit")
)

func main() {
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
	if *arenaMode {
		err = runArena(*duration, *seed)
	} else {
		err = run(os.Stdout, *fig, *duration, *seed, *csvDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tstorm-bench:", err)
		os.Exit(1)
	}
}

// run regenerates the figures named by figs (comma-separated IDs; empty =
// all) on GOMAXPROCS workers. Each figure is an independent set of seeded
// simulations, so it renders into its own buffer, and the buffers are
// written to out in GeneratorIDs order: the output is what one figure
// after another would print, the timing lines aside.
func run(out io.Writer, figs string, duration time.Duration, seed uint64, csvDir string) error {
	gens := experiment.Generators()
	ids := experiment.GeneratorIDs()
	if figs != "" {
		want := strings.Split(figs, ",")
		for _, id := range want {
			if _, ok := gens[id]; !ok {
				return fmt.Errorf("unknown figure %q (have %v)", id, ids)
			}
		}
		ids = slices.DeleteFunc(ids, func(id string) bool { return !slices.Contains(want, id) })
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	opt := experiment.Options{Duration: duration, Seed: seed}
	start := time.Now()
	bufs := make([]bytes.Buffer, len(ids))
	errs := make([]error, len(ids))
	next := make(chan int)
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = regenerate(&bufs[i], ids[i], gens[ids[i]], opt, csvDir)
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range ids {
		if _, err := bufs[i].WriteTo(out); err != nil {
			return err
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	_, err := fmt.Fprintf(out, "(%d figures regenerated in %.1fs wall time on %d workers)\n",
		len(ids), time.Since(start).Seconds(), workers)
	return err
}

// regenerate runs one figure's generator and renders it — table, chart,
// timing line and, with csvDir, its CSV file — into out.
func regenerate(out io.Writer, id string, gen func(experiment.Options) (*experiment.Figure, error), opt experiment.Options, csvDir string) error {
	start := time.Now()
	figure, err := gen(opt)
	if err != nil {
		return fmt.Errorf("figure %s: %w", id, err)
	}
	if err := figure.Render(out); err != nil {
		return err
	}
	logScale := id == "9" || id == "10" || id == "3"
	if err := figure.Chart(out, 12, logScale); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	var events uint64
	for _, res := range figure.Results {
		events += res.SimEvents
	}
	if events == 0 {
		fmt.Fprintf(out, "(regenerated in %.1fs wall time)\n\n", wall)
	} else {
		// The simulator's own speed, where people run it: a slow kernel
		// shows here, not only in bench/.
		fmt.Fprintf(out, "(regenerated in %.1fs wall time: %.2f M simulated events, %.2f M events/s)\n\n",
			wall, float64(events)/1e6, float64(events)/1e6/wall)
	}
	if csvDir == "" {
		return nil
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
	fmt.Fprintf(out, "wrote %s\n\n", path)
	return nil
}
