// Command tstorm-sched is an offline scheduling workbench: it builds one
// of the paper's topologies, synthesizes (or derives) a load snapshot, and
// compares every scheduling algorithm's placement quality — inter-node
// traffic, inter-process traffic, node count, and the worst node load —
// without running the stream engine.
//
// Usage:
//
//	tstorm-sched -workload logstream -gamma 1.7 -nodes 10 [-rate 220]
//	tstorm-sched explain [-workload W] [-gamma G] [-snapshot traffic.json]
//
// The explain subcommand replays Algorithm 1 with the decision probe
// attached and prints the per-executor placement table: traffic rank,
// winning slot and co-location gain, and every rejected candidate with
// the constraint (slot / capacity / count) that rejected it. Feed it a
// snapshot saved from a live stack's /debug/traffic endpoint to explain
// a real scheduling round offline.
package main

import (
	"flag"
	"fmt"
	"os"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/redisq"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
	"tstorm/internal/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		if err := runExplain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "tstorm-sched:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "wordcount", "workload: throughput | wordcount | selffed | logstream")
	gamma := flag.Float64("gamma", 1.7, "consolidation factor γ for the tstorm algorithm")
	nodes := flag.Int("nodes", 10, "cluster size")
	rate := flag.Float64("rate", 150, "assumed input rate (lines/s) for the synthetic load snapshot")
	dot := flag.Bool("dot", false, "print the topology as a Graphviz digraph and exit")
	flag.Parse()

	if *dot {
		app, err := buildApp(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tstorm-sched:", err)
			os.Exit(1)
		}
		fmt.Print(app.Topology.DOT())
		return
	}
	if err := run(*workload, *gamma, *nodes, *rate); err != nil {
		fmt.Fprintln(os.Stderr, "tstorm-sched:", err)
		os.Exit(1)
	}
}

func run(workload string, gamma float64, nodes int, rate float64) error {
	app, err := buildApp(workload)
	if err != nil {
		return err
	}
	top := app.Topology
	cl, err := cluster.Uniform(nodes, 4, 2000, 4)
	if err != nil {
		return err
	}
	db := synthesizeLoad(app, rate)
	snap := db.Snapshot()
	in := scheduler.NewInput([]*topology.Topology{top}, cl, snap, 0.9)

	algos := []scheduler.Algorithm{
		scheduler.RoundRobin{},
		scheduler.TStormInitial{},
		scheduler.AnielloOffline{},
		scheduler.AnielloOnline{},
		core.NewTrafficAware(gamma),
	}
	fmt.Printf("topology %s: %d executors over %d nodes (%d slots); γ=%g\n\n",
		top.Name(), top.NumExecutors(), cl.NumNodes(), cl.NumSlots(), gamma)
	fmt.Printf("%-18s  %12s  %14s  %6s  %14s\n",
		"algorithm", "inter-node/s", "inter-proc/s", "nodes", "max node MHz")
	for _, a := range algos {
		assign, err := a.Schedule(in)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name(), err)
		}
		_, maxLoad := core.MaxNodeLoad(assign, snap.ExecLoad)
		fmt.Printf("%-18s  %12.0f  %14.0f  %6d  %14.0f\n",
			a.Name(),
			core.InterNodeTraffic(assign, snap),
			core.InterProcessTraffic(assign, snap),
			assign.NumUsedNodes(),
			maxLoad)
	}
	return nil
}

func buildApp(workload string) (*engine.App, error) {
	queue := redisq.NewServer()
	sink := docstore.NewStore()
	switch workload {
	case "throughput":
		return workloads.NewThroughputTest(workloads.DefaultThroughputConfig())
	case "wordcount":
		cfg := workloads.DefaultWordCountConfig()
		cfg.Queue, cfg.Sink = queue, sink
		return workloads.NewWordCount(cfg)
	case "selffed":
		cfg := workloads.DefaultSelfFedWordCountConfig()
		cfg.Sink = sink
		return workloads.NewSelfFedWordCount(cfg)
	case "logstream":
		cfg := workloads.DefaultLogStreamConfig()
		cfg.Queue, cfg.Sink = queue, sink
		return workloads.NewLogStream(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
}

// synthesizeLoad builds a plausible load snapshot for the topology: each
// stage fans its input uniformly to its consumers per grouping, and
// executor CPU load is rate × the component's per-tuple cost.
func synthesizeLoad(app *engine.App, rate float64) *loaddb.DB {
	db := loaddb.New(1)
	top := app.Topology
	// Per-component output rate: spouts emit `rate` in total; each bolt
	// forwards what it receives (Word Count's split bolt multiplies by
	// the words-per-line factor).
	outRate := map[string]float64{}
	for _, name := range top.ComponentNames() {
		c, _ := top.Component(name)
		if c.Kind == topology.SpoutKind {
			outRate[name] = rate
		}
	}
	// Propagate in declaration order (the builders declare upstream
	// components first).
	for _, name := range top.ComponentNames() {
		c, _ := top.Component(name)
		if c.Kind != topology.BoltKind || name == topology.AckerComponent {
			continue
		}
		in := 0.0
		for _, g := range c.Inputs {
			in += outRate[g.SourceComponent]
		}
		mult := 1.0
		if name == "split" {
			mult = 8.7 // average words per corpus line
		}
		outRate[name] = in * mult
	}
	for _, name := range top.ComponentNames() {
		c, _ := top.Component(name)
		perExec := outRate[name] / float64(c.Parallelism)
		cost := engine.DefaultCost(tuple.Tuple{})
		if fn, ok := app.Costs[name]; ok {
			cost = fn(tuple.Tuple{})
		}
		for i := 0; i < c.Parallelism; i++ {
			e := topology.ExecutorID{Topology: top.Name(), Component: name, Index: i}
			db.UpdateExecutorLoad(e, perExec*cost/1e6)
			for _, edge := range top.Consumers(name, topology.DefaultStream) {
				cons, _ := top.Component(edge.Consumer)
				for j := 0; j < cons.Parallelism; j++ {
					to := topology.ExecutorID{Topology: top.Name(), Component: edge.Consumer, Index: j}
					db.UpdateTraffic(e, to, outRate[name]/float64(c.Parallelism)/float64(cons.Parallelism))
				}
			}
		}
	}
	return db
}
