package experiment

import (
	"fmt"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/metrics"
	"tstorm/internal/topology"
	"tstorm/internal/workloads"
)

// Options tunes figure generation. Zero values use the paper's settings;
// tests pass a shorter Duration.
type Options struct {
	// Duration overrides each run's length (0 = the figure's paper
	// duration, typically 1000 s).
	Duration time.Duration
	// Seed overrides the simulation seed (0 = 1).
	Seed uint64
}

func (o Options) duration(paper time.Duration) time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	return paper
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// Series is one line of a figure.
type Series struct {
	Label  string
	Points []metrics.Point
}

// SummaryRow is one paper-vs-measured comparison line.
type SummaryRow struct {
	Metric   string
	Paper    string
	Measured string
}

// Figure is a regenerated table/figure of the paper.
type Figure struct {
	ID    string
	Title string
	// Series holds the plotted lines (1-minute average processing time
	// unless noted).
	Series []Series
	// NodeSteps annotates node-count changes per run (the "#Nodes=…"
	// labels of Figs. 5-10).
	NodeSteps map[string][]metrics.StepPoint
	// Summary compares headline values against the paper.
	Summary []SummaryRow
	Notes   []string
	// Results gives access to the full per-run data.
	Results map[string]*Result
}

// Generators returns every figure generator keyed by figure ID.
func Generators() map[string]func(Options) (*Figure, error) {
	return map[string]func(Options) (*Figure, error){
		"2":         Fig2,
		"3":         Fig3,
		"5":         Fig5,
		"6":         Fig6,
		"8":         Fig8,
		"9":         Fig9,
		"10":        Fig10,
		"headline":  Headline,
		"baselines": Baselines,
		"gamma":     GammaSweep,
		"table2":    TableII,
	}
}

// GeneratorIDs lists figure IDs in presentation order.
func GeneratorIDs() []string {
	return []string{"table2", "2", "3", "5", "6", "8", "9", "10", "headline", "baselines", "gamma"}
}

// pinAllOn places every executor on the first slot of the first node
// (the n1w1 placement).
func pinAllOn(top *topology.Topology, cl *cluster.Cluster) *cluster.Assignment {
	a := cluster.NewAssignment(0)
	slot := cl.Slots()[0]
	for _, e := range top.Executors() {
		a.Assign(e, slot)
	}
	return a
}

// pinSpread places executors round-robin over `workers` slots spread over
// `nodes` nodes (ports filled per node as needed).
func pinSpread(nodes, workers int) func(*topology.Topology, *cluster.Cluster) *cluster.Assignment {
	return func(top *topology.Topology, cl *cluster.Cluster) *cluster.Assignment {
		a := cluster.NewAssignment(0)
		all := cl.Nodes()
		if nodes > len(all) {
			nodes = len(all)
		}
		slots := make([]cluster.SlotID, 0, workers)
		for i := 0; i < workers; i++ {
			n := all[i%nodes]
			port := cluster.BasePort + i/nodes
			slots = append(slots, cluster.SlotID{Node: n.ID, Port: port})
		}
		for i, e := range top.Executors() {
			a.Assign(e, slots[i%len(slots)])
		}
		return a
	}
}

// Fig2 reproduces Observation 1: the chain topology under three fixed
// placements — n1w1 (1 node, 1 worker), n5w5 (5 nodes, 5 workers, the
// default scheduler's placement) and n5w10 (5 nodes, 10 workers, maximal
// spread).
func Fig2(opt Options) (*Figure, error) {
	dur := opt.duration(500 * time.Second)
	fig := &Figure{
		ID:        "2",
		Title:     "Fig. 2 — Impact of inter-process and inter-node traffic (chain topology)",
		NodeSteps: map[string][]metrics.StepPoint{},
		Results:   map[string]*Result{},
	}
	cases := []struct {
		label   string
		pin     func(*topology.Topology, *cluster.Cluster) *cluster.Assignment
		workers int
	}{
		{"n1w1", pinAllOn, 1},
		{"n5w5", pinSpread(5, 5), 5},
		{"n5w10", pinSpread(5, 10), 10},
	}
	for _, c := range cases {
		res, err := Run(Config{
			Name: "fig2-" + c.label, Workload: WorkloadChain, Scheduler: SchedPinned,
			Nodes: 5, Duration: dur, StabilizeAfter: dur / 2, Seed: opt.seed(),
			Workers: c.workers, PinAssignment: c.pin,
		})
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{Label: c.label, Points: res.Latency})
		fig.Results[c.label] = res
	}
	n1 := fig.Results["n1w1"].StableMean
	n5w5 := fig.Results["n5w5"].StableMean
	n5w10 := fig.Results["n5w10"].StableMean
	fig.Summary = []SummaryRow{
		{"n5w5 vs n1w1 (stable avg proc time)", "+35%", fmt.Sprintf("%+.0f%%", 100*(n5w5/n1-1))},
		{"n5w10 vs n1w1 (stable avg proc time)", "+67%", fmt.Sprintf("%+.0f%%", 100*(n5w10/n1-1))},
	}
	fig.Notes = append(fig.Notes,
		"Shape target: spreading executors over processes and nodes strictly increases processing time.")
	return fig, nil
}

// Fig3 reproduces Observation 2: overloading a single bolt executor with
// 5 spouts explodes processing time (a) and fails tuples (b).
func Fig3(opt Options) (*Figure, error) {
	dur := opt.duration(180 * time.Second)
	ccfg := workloads.DefaultChainConfig()
	ccfg.Spouts = 5
	ccfg.Bolts = 1
	ccfg.Workers = 1
	// A single bolt executor (one thread, one 2 GHz core) at 1.5 ms per
	// tuple can process ~666 tuples/s; 5 spouts emit ~1000/s.
	ccfg.BoltCostCycles = 1.5e-3 * 2000e6
	res, err := Run(Config{
		Name: "fig3", Workload: WorkloadChain, Scheduler: SchedPinned,
		Nodes: 1, Duration: dur, StabilizeAfter: dur / 2, Seed: opt.seed(),
		ChainCfg: &ccfg, PinAssignment: pinAllOn,
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:    "3",
		Title: "Fig. 3 — Impact of overloading a worker node (5 spouts → 1 bolt executor)",
		Series: []Series{
			{Label: "avg-proc-time", Points: res.Latency},
			{Label: "failed-tuples", Points: res.Failures},
		},
		Results: map[string]*Result{"overload": res},
	}
	fig.Summary = []SummaryRow{
		{"processing time during overload", "skyrockets (10^4 ms scale)",
			fmt.Sprintf("peak minute mean %.0f ms", maxMean(res.Latency))},
		{"failed tuples", "accumulate steadily", fmt.Sprintf("%d failed", res.Failed)},
	}
	return fig, nil
}

func maxMean(pts []metrics.Point) float64 {
	m := 0.0
	for _, p := range pts {
		if p.Mean > m {
			m = p.Mean
		}
	}
	return m
}

// comparisonFigure runs Storm (default scheduler) once and T-Storm at
// each γ, producing one sub-figure per γ.
func comparisonFigure(id, title string, workload WorkloadKind, gammas []float64,
	paperNodes []int, paperSpeedup []string, opt Options) (*Figure, error) {
	dur := opt.duration(1000 * time.Second)
	stab := dur / 2
	fig := &Figure{
		ID:        id,
		Title:     title,
		NodeSteps: map[string][]metrics.StepPoint{},
		Results:   map[string]*Result{},
	}
	storm, err := Run(Config{
		Name: "fig" + id + "-storm", Workload: workload, Scheduler: SchedStormDefault,
		Duration: dur, StabilizeAfter: stab, Seed: opt.seed(),
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "Storm", Points: storm.Latency})
	fig.Results["Storm"] = storm

	for i, g := range gammas {
		label := fmt.Sprintf("T-Storm γ=%g", g)
		res, err := Run(Config{
			Name: fmt.Sprintf("fig%s-tstorm-g%g", id, g), Workload: workload,
			Scheduler: SchedTStorm, Gamma: g,
			Duration: dur, StabilizeAfter: stab, Seed: opt.seed(),
		})
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{Label: label, Points: res.Latency})
		fig.NodeSteps[label] = res.Nodes
		fig.Results[label] = res
		speedup := 100 * (1 - res.StableMean/storm.StableMean)
		fig.Summary = append(fig.Summary,
			SummaryRow{
				Metric:   fmt.Sprintf("γ=%g nodes used", g),
				Paper:    fmt.Sprintf("%d", paperNodes[i]),
				Measured: fmt.Sprintf("%d", res.FinalNodes),
			},
			SummaryRow{
				Metric:   fmt.Sprintf("γ=%g speedup vs Storm (stable)", g),
				Paper:    paperSpeedup[i],
				Measured: fmt.Sprintf("%.0f%%", speedup),
			})
	}
	return fig, nil
}

// Fig5 reproduces the Throughput Test comparison (γ = 1, 1.7, 6).
func Fig5(opt Options) (*Figure, error) {
	return comparisonFigure("5",
		"Fig. 5 — Throughput Test topology: Storm vs T-Storm",
		WorkloadThroughput,
		[]float64{1, 1.7, 6},
		[]int{10, 7, 2},
		[]string{"83%", "84%", "~84%"},
		opt)
}

// Fig6 reproduces the Word Count comparison (γ = 1, 1.8, 2.2).
func Fig6(opt Options) (*Figure, error) {
	return comparisonFigure("6",
		"Fig. 6 — Word Count topology: Storm vs T-Storm",
		WorkloadWordCount,
		[]float64{1, 1.8, 2.2},
		[]int{10, 7, 5},
		[]string{"49%", "42%", "35%"},
		opt)
}

// Fig8 reproduces the Log Stream Processing comparison (γ = 1, 1.7, 2).
func Fig8(opt Options) (*Figure, error) {
	return comparisonFigure("8",
		"Fig. 8 — Log Stream Processing topology: Storm vs T-Storm",
		WorkloadLogStream,
		[]float64{1, 1.7, 2},
		[]int{10, 7, 5},
		[]string{"54%", "27%", "~0% (comparable)"},
		opt)
}

// overloadFigure reproduces the overload-handling experiments: the
// topology starts on one worker on one node, the feed is doubled, and
// T-Storm must detect the overload and spread out.
func overloadFigure(id, title string, workload WorkloadKind, paperNodes int, opt Options) (*Figure, error) {
	dur := opt.duration(1000 * time.Second)
	res, err := Run(Config{
		Name: "fig" + id, Workload: workload, Scheduler: SchedTStorm, Gamma: 2,
		Duration: dur, StabilizeAfter: dur * 3 / 4, Seed: opt.seed(),
		Workers:  1,
		FeedRate: 2 * defaultFeedRates[workload], // "two concurrent streams"
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:    id,
		Title: title,
		Series: []Series{
			{Label: "T-Storm", Points: res.Latency},
			{Label: "failed-tuples", Points: res.Failures},
		},
		NodeSteps: map[string][]metrics.StepPoint{"T-Storm": res.Nodes},
		Results:   map[string]*Result{"T-Storm": res},
	}
	detect := "never"
	for _, ev := range res.Reassignments[1:] {
		detect = fmt.Sprintf("%.0fs", ev.At.Seconds())
		break
	}
	fig.Summary = []SummaryRow{
		{"overload detected and re-scheduled at", map[string]string{"9": "~120s", "10": "~164s"}[id], detect},
		{"nodes after recovery", fmt.Sprintf("%d", paperNodes), fmt.Sprintf("%d", res.FinalNodes)},
		{"latency recovers", "sharp drop to normal",
			fmt.Sprintf("peak %.0f ms → stable %.1f ms", maxMean(res.Latency), res.StableMean)},
	}
	return fig, nil
}

// Fig9 reproduces overload handling on Word Count (1 node → 5 nodes).
func Fig9(opt Options) (*Figure, error) {
	return overloadFigure("9",
		"Fig. 9 — Overload handling on the Word Count topology (log-scale latency)",
		WorkloadWordCount, 5, opt)
}

// Fig10 reproduces overload handling on Log Stream Processing
// (1 node → 8 nodes).
func Fig10(opt Options) (*Figure, error) {
	return overloadFigure("10",
		"Fig. 10 — Overload handling on the Log Stream Processing topology (log-scale latency)",
		WorkloadLogStream, 8, opt)
}

// Headline reproduces the abstract's claim: over 84% speedup on lightly
// loaded and 27% on heavily loaded topologies with 30% fewer nodes.
func Headline(opt Options) (*Figure, error) {
	dur := opt.duration(1000 * time.Second)
	stab := dur / 2
	fig := &Figure{
		ID:      "headline",
		Title:   "Headline — speedup with 30% fewer worker nodes (γ=1.7)",
		Results: map[string]*Result{},
	}
	for _, wl := range []struct {
		kind  WorkloadKind
		label string
		paper string
	}{
		{WorkloadThroughput, "light (Throughput Test)", "≥84%"},
		{WorkloadLogStream, "heavy (Log Stream Processing)", "≥27%"},
	} {
		storm, err := Run(Config{
			Name: "headline-storm-" + string(wl.kind), Workload: wl.kind,
			Scheduler: SchedStormDefault, Duration: dur, StabilizeAfter: stab, Seed: opt.seed(),
		})
		if err != nil {
			return nil, err
		}
		ts, err := Run(Config{
			Name: "headline-tstorm-" + string(wl.kind), Workload: wl.kind,
			Scheduler: SchedTStorm, Gamma: 1.7, Duration: dur, StabilizeAfter: stab, Seed: opt.seed(),
		})
		if err != nil {
			return nil, err
		}
		fig.Results["storm-"+string(wl.kind)] = storm
		fig.Results["tstorm-"+string(wl.kind)] = ts
		stormMean, tsMean := storm.StableMean, ts.StableMean
		speedup := 100 * (1 - tsMean/stormMean)
		fig.Summary = append(fig.Summary,
			SummaryRow{
				Metric:   wl.label + " speedup",
				Paper:    wl.paper,
				Measured: fmt.Sprintf("%.0f%% (%.2f ms → %.2f ms)", speedup, stormMean, tsMean),
			},
			SummaryRow{
				Metric:   wl.label + " nodes",
				Paper:    "10 → 7 (30% fewer)",
				Measured: fmt.Sprintf("%d → %d", storm.FinalNodes, ts.FinalNodes),
			})
	}
	return fig, nil
}

// Baselines is our extension: T-Storm against the DEBS'13 online and
// offline schedulers (§III discusses them; the paper could not evaluate
// the online one on real topologies because it fell back to the default
// scheduler).
func Baselines(opt Options) (*Figure, error) {
	dur := opt.duration(1000 * time.Second)
	stab := dur / 2
	fig := &Figure{
		ID:      "baselines",
		Title:   "Extension — scheduler shoot-out on Word Count",
		Results: map[string]*Result{},
	}
	kinds := []SchedulerKind{SchedStormDefault, SchedAnielloOffline, SchedAnielloOnline, SchedLoadBalanced, SchedTStorm}
	means := map[SchedulerKind]float64{}
	for _, k := range kinds {
		res, err := Run(Config{
			Name: "baseline-" + string(k), Workload: WorkloadWordCount, Scheduler: k,
			Gamma: 1.8, Duration: dur, StabilizeAfter: stab, Seed: opt.seed(),
		})
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{Label: string(k), Points: res.Latency})
		fig.Results[string(k)] = res
		means[k] = res.StableMean
		fig.Summary = append(fig.Summary, SummaryRow{
			Metric:   string(k) + " stable mean / nodes",
			Paper:    "—",
			Measured: fmt.Sprintf("%.2f ms / %d nodes", res.StableMean, res.FinalNodes),
		})
	}
	if means[SchedTStorm] < means[SchedStormDefault] {
		fig.Notes = append(fig.Notes, "T-Storm beats the default scheduler, as in the paper.")
	}
	sort.Slice(fig.Series, func(i, j int) bool { return fig.Series[i].Label < fig.Series[j].Label })
	return fig, nil
}
