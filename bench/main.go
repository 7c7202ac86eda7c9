// Command bench is the repository's benchmark: four workloads that load
// different layers of the system, end-to-end metrics with regression
// bounds, per-layer probes taken from outside the program under test, and
// an A/A mode that measures the benchmark's own noise. README.md in this
// directory says why each workload exists and what each metric means;
// BENCHMARK.json at the repository root is the machine-readable contract
// (regenerate it with -manifest).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tstorm/internal/dist"
)

// opts is what every workload pass is run with.
type opts struct {
	seed    uint64
	seconds float64 // measured time; phases take fixed shares of it
	traced  bool    // decorators on, micro-probes run
	spanDir string  // where a traced pass writes its span file
	// setups is how often the workload sets up, so that setup_s is a
	// median; the halves of a traced pass, which do not report it, set up
	// once.
	setups int
}

// share converts a fraction of the measured time into a duration.
func (o opts) share(f float64) time.Duration {
	return time.Duration(f * o.seconds * float64(time.Second))
}

// atLeast is share with a floor, for phases that stop making sense below
// some length (a monitor needs its samples, an ack timeout its two
// seconds) however small -seconds is.
func (o opts) atLeast(f float64, floor time.Duration) time.Duration {
	return max(o.share(f), floor)
}

const setupRepeats = 3

type workload struct {
	name string
	why  string
	run  func(opts) (*result, error)
}

var allWorkloads = []workload{
	{"live-sat", "closed loop on the in-process engine: both cores saturated, so CPU freed in emit/route/codec/queue/execute shows as tuples/s", runLiveSat},
	{"live-paced", "open loop on the same engine: queues near empty, latency- not CPU-bound, so waits added to buy throughput show here", runLivePaced},
	{"dist-wire", "three worker processes on loopback TCP: the only place codec, wire frame and socket are real; survives a kill -9 with no root lost", runDistWire},
	{"plan-sim", "no wall-clock data plane: the DES replays Fig. 6 and the schedulers run rounds up to 10 000 executors, so only the control plane works", runPlanSim},
}

func main() {
	// The dist workload re-executes this binary as its worker processes.
	dist.RunWorkerIfChild()

	var (
		name     = flag.String("workload", "", "run one workload (default: all)")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1: traced pass, reports per-layer metrics; 0: untraced, reports end-to-end metrics")
		out      = flag.String("out", "", "also write the full results as JSON to this file")
		spanDir  = flag.String("spans", os.TempDir(), "directory a traced pass writes its spans-<workload>.jsonl to")
		aa       = flag.Bool("aa", false, "A/A mode: run -sets complete sets and compare them")
		sets     = flag.Int("sets", 2, "number of sets in A/A mode")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		if err := json.NewEncoder(os.Stdout).Encode(manifestDoc()); err != nil {
			fatal(err)
		}
		return
	}
	o := opts{seed: *seed, seconds: *seconds, traced: *trace != 0, spanDir: *spanDir, setups: setupRepeats}
	if *aa {
		os.Exit(runAA(o, *name, *sets))
	}
	var results []*result
	failed := false
	for _, w := range allWorkloads {
		if *name != "" && w.name != *name {
			continue
		}
		res, err := runPass(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.print(os.Stdout)
		results = append(results, res)
		failed = failed || res.Failed > 0
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *out != "" {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, raw, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the machine-readable summary
	// of the last workload run (the driver runs one at a time).
	fmt.Println(summaryLine(results[len(results)-1], o.traced))
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
