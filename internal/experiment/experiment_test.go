package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workload: "nope", Scheduler: SchedStormDefault},
		{Workload: WorkloadChain, Scheduler: "nope"},
		{Workload: WorkloadChain, Scheduler: SchedPinned}, // no PinAssignment
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// Defaults fill in.
	cfg := Config{Workload: WorkloadChain, Scheduler: SchedStormDefault}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 10 || cfg.Duration != 1000*time.Second || cfg.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	tcfg := Config{Workload: WorkloadChain, Scheduler: SchedTStorm}
	if err := tcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if tcfg.Gamma != 1 {
		t.Fatalf("tstorm default gamma = %v, want 1", tcfg.Gamma)
	}
}

func TestFig2Shape(t *testing.T) {
	fig, err := Fig2(Options{Duration: 300 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n1 := fig.Results["n1w1"].StableMean
	n5w5 := fig.Results["n5w5"].StableMean
	n5w10 := fig.Results["n5w10"].StableMean
	t.Logf("n1w1=%.3fms n5w5=%.3fms n5w10=%.3fms", n1, n5w5, n5w10)
	if !(n1 < n5w5 && n5w5 < n5w10) {
		t.Fatalf("Observation 1 shape violated: %.3f, %.3f, %.3f", n1, n5w5, n5w10)
	}
	if fig.Results["n1w1"].Completions == 0 {
		t.Fatal("n1w1 completed nothing")
	}
}

func TestFig3OverloadShape(t *testing.T) {
	fig, err := Fig3(Options{Duration: 180 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res := fig.Results["overload"]
	if res.Failed == 0 {
		t.Fatal("no failed tuples under overload")
	}
	peak := maxMean(res.Latency)
	t.Logf("peak latency %.0fms, failed %d", peak, res.Failed)
	if peak < 1000 {
		t.Fatalf("overload peak %.0fms too small for Observation 2", peak)
	}
}

func TestFig5QuickShape(t *testing.T) {
	// Shortened Throughput Test comparison at γ=1.7: T-Storm must beat
	// Storm substantially and use fewer nodes.
	dur := 600 * time.Second
	storm, err := Run(Config{
		Name: "q-storm", Workload: WorkloadThroughput, Scheduler: SchedStormDefault,
		Duration: dur, StabilizeAfter: 300 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Run(Config{
		Name: "q-tstorm", Workload: WorkloadThroughput, Scheduler: SchedTStorm, Gamma: 1.7,
		Duration: dur, StabilizeAfter: 400 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("storm=%.3fms (%d nodes), tstorm=%.3fms (%d nodes), speedup=%.0f%%",
		storm.StableMean, storm.FinalNodes, ts.StableMean, ts.FinalNodes,
		100*(1-ts.StableMean/storm.StableMean))
	if storm.FinalNodes != 10 {
		t.Fatalf("Storm used %d nodes, want all 10", storm.FinalNodes)
	}
	if ts.FinalNodes >= storm.FinalNodes {
		t.Fatalf("T-Storm used %d nodes, not fewer than Storm's %d", ts.FinalNodes, storm.FinalNodes)
	}
	if ts.StableMean >= storm.StableMean/2 {
		t.Fatalf("T-Storm %.3fms not at least 2× faster than Storm %.3fms",
			ts.StableMean, storm.StableMean)
	}
	if ts.Failed > ts.RootsEmitted/50 {
		t.Fatalf("T-Storm failed too many tuples: %d of %d", ts.Failed, ts.RootsEmitted)
	}
}

func TestFig9OverloadRecovery(t *testing.T) {
	fig, err := Fig9(Options{Duration: 600 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res := fig.Results["T-Storm"]
	t.Logf("final nodes=%d, reassignments=%d, peak=%.0fms, stable=%.1fms",
		res.FinalNodes, len(res.Reassignments), maxMean(res.Latency), res.StableMean)
	if res.FinalNodes < 2 {
		t.Fatal("overload handling did not spread beyond one node")
	}
	if len(res.Reassignments) < 2 {
		t.Fatal("no overload-triggered re-assignment")
	}
	peak := maxMean(res.Latency)
	if res.StableMean >= peak/10 {
		t.Fatalf("latency did not recover: peak %.0fms, stable %.1fms", peak, res.StableMean)
	}
}

func TestRenderAndCSV(t *testing.T) {
	fig, err := Fig2(Options{Duration: 180 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig. 2", "n1w1", "n5w5", "n5w10", "paper", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := fig.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "figure,series,t_seconds,mean,count,max\n") {
		t.Fatalf("csv header wrong: %q", csv.String()[:60])
	}
	if !strings.Contains(csv.String(), "2,n1w1,") {
		t.Fatal("csv missing series rows")
	}
}

func TestGeneratorsRegistry(t *testing.T) {
	gens := Generators()
	ids := GeneratorIDs()
	if len(gens) != len(ids) {
		t.Fatalf("registry (%d) and ID list (%d) disagree", len(gens), len(ids))
	}
	for _, id := range ids {
		if gens[id] == nil {
			t.Errorf("generator %q missing", id)
		}
	}
}

func TestChartRendering(t *testing.T) {
	fig, err := Fig2(Options{Duration: 180 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.Chart(&sb, 8, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"*", "o", "+", "n1w1", "n5w10", "t=0s"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Log scale renders too.
	var sb2 strings.Builder
	if err := fig.Chart(&sb2, 8, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "log-scale") {
		t.Error("log-scale footer missing")
	}
	// Empty figure degrades gracefully.
	var sb3 strings.Builder
	if err := (&Figure{}).Chart(&sb3, 8, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb3.String(), "no series") {
		t.Error("empty chart message missing")
	}
}

func TestGammaSweepShort(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs ten simulations")
	}
	fig, err := GammaSweep(Options{Duration: 420 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want latency + nodes", len(fig.Series))
	}
	// Nodes monotonically non-increasing along γ, latency non-decreasing
	// from the lowest to the highest γ endpoint.
	nodes := fig.Series[1].Points
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Mean > nodes[i-1].Mean {
			t.Fatalf("node curve not non-increasing at %d: %v", i, nodes)
		}
	}
	lat := fig.Series[0].Points
	if lat[len(lat)-1].Mean < lat[0].Mean {
		t.Fatalf("latency at max γ (%v) below γ=1 (%v)", lat[len(lat)-1].Mean, lat[0].Mean)
	}
	if fig.Results["storm"] == nil {
		t.Fatal("storm baseline missing")
	}
}

func TestTableIIFigure(t *testing.T) {
	fig, err := TableII(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Summary) < 8 {
		t.Fatalf("summary rows = %d", len(fig.Summary))
	}
	for _, row := range fig.Summary {
		if row.Measured == "" {
			t.Fatalf("row %q unmeasured", row.Metric)
		}
	}
}
