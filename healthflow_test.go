package tstorm_test

// End-to-end observability-layer test on the public facade: a live stack
// wired WithHealth must detect a CrashWorker-induced throughput collapse
// purely from the retained time series — throughput-floor degrades, the
// transition lands in the trace ring, the supervisor's restart heals it,
// and the recovery transition lands too. The sampler is driven manually
// (WithSampleEvery pushed out to an hour) so the test controls the
// series' clock deterministically instead of racing a 1 s cadence.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tstorm"
	"tstorm/internal/cluster"
)

// healthTrace scans the recorder for a health transition of the given
// kind on the given rule.
func healthTrace(rec *tstorm.TraceRecorder, kind, rule string) bool {
	for _, ev := range rec.Events() {
		if string(ev.Kind) == kind && ev.Where == rule {
			return true
		}
	}
	return false
}

func TestHealthDetectsCrashAndRecovery(t *testing.T) {
	b := tstorm.NewTopology("healthflow", 2)
	b.SetAckers(1)
	b.Spout("src", 1).Output("default", "v")
	b.Bolt("work", 2).Shuffle("src")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tstorm.NewCluster(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := tstorm.NewTraceRecorder(512)
	lcfg := tstorm.DefaultLiveConfig()
	lcfg.Trace = rec
	eng, err := tstorm.NewLiveEngine(lcfg, cl)
	if err != nil {
		t.Fatal(err)
	}

	// Spout and acker on node01; both sink bolts alone on node02, so one
	// CrashWorker kills exactly the processing capacity being watched.
	slotA := tstorm.SlotID{Node: "node01", Port: tstorm.BasePort}
	slotB := tstorm.SlotID{Node: "node02", Port: tstorm.BasePort}
	initial := cluster.NewAssignment(0)
	for _, ex := range top.Executors() {
		slot := slotA
		if ex.Component == "work" {
			slot = slotB
		}
		initial.Assign(ex, slot)
	}

	var seen int64
	app := &tstorm.App{
		Topology:      top,
		Spouts:        map[string]func() tstorm.Spout{"src": func() tstorm.Spout { return &facadeSpout{} }},
		Bolts:         map[string]func() tstorm.Bolt{"work": func() tstorm.Bolt { return facadeBolt{seen: &seen} }},
		SpoutInterval: map[string]time.Duration{"src": time.Millisecond},
	}
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	stack, err := tstorm.Wire(eng,
		tstorm.WithMonitorPeriod(time.Hour),
		tstorm.WithGeneratePeriod(time.Hour),
		tstorm.WithHealth(),
		tstorm.WithSampleEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Stop()
	if stack.TSDB == nil || stack.Health == nil || stack.Sampler() == nil {
		t.Fatal("WithHealth left the observability layer unwired")
	}

	// Manual sampling clock: every tick advances the series one synthetic
	// second while ~20 ms of real traffic accumulates underneath.
	sim := time.Now()
	tick := func() {
		time.Sleep(20 * time.Millisecond)
		sim = sim.Add(time.Second)
		stack.Sampler().Tick(sim)
	}

	ruleLevel := func() string {
		for _, r := range stack.Health.Status(sim).Rules {
			if r.Name == "throughput-floor" {
				return r.Level
			}
		}
		t.Fatal("throughput-floor rule missing")
		return ""
	}

	// Healthy phase: seed the EWMA baseline and fill the rate window.
	for i := 0; i < 10; i++ {
		tick()
	}
	if got := ruleLevel(); got != "ok" {
		t.Fatalf("throughput-floor = %s after healthy warmup, want ok", got)
	}

	// Fault phase: keep killing node02's executors (the supervisor keeps
	// restarting them) until the retained series shows the collapse.
	degraded := false
	for i := 0; i < 40 && !degraded; i++ {
		eng.CrashWorker(slotB)
		tick()
		degraded = ruleLevel() != "ok"
	}
	if !degraded {
		t.Fatal("throughput-floor never left ok while the sink slot was being crashed")
	}
	// A deep collapse may escalate straight past degraded, so either
	// fault-transition kind satisfies the detection claim.
	if !healthTrace(rec, "health-degraded", "throughput-floor") &&
		!healthTrace(rec, "health-critical", "throughput-floor") {
		t.Error("fault transition missing from the trace ring")
	}

	// Recovery phase: stop crashing, let the supervisor restart the
	// bolts, and keep sampling until the rule clears its hysteresis.
	deadline := time.Now().Add(30 * time.Second)
	for ruleLevel() != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("throughput-floor never recovered after the crashes stopped")
		}
		tick()
	}
	if !healthTrace(rec, "health-recovered", "throughput-floor") {
		t.Error("recovered transition missing from the trace ring")
	}

	// The same story must be visible over the facade's HTTP surface.
	srv, err := stack.StartTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	var st tstorm.HealthStatus
	if err := json.Unmarshal([]byte(get("/debug/health")), &st); err != nil {
		t.Fatalf("/debug/health not JSON: %v", err)
	}
	if len(st.Rules) == 0 || st.Transitions < 2 {
		t.Errorf("/debug/health reports %d rules, %d transitions; want the full story", len(st.Rules), st.Transitions)
	}
	var ts struct {
		Series []struct {
			Name   string            `json:"name"`
			Points []json.RawMessage `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(get("/debug/timeseries?family=sink_processed_total")), &ts); err != nil {
		t.Fatalf("/debug/timeseries not JSON: %v", err)
	}
	if len(ts.Series) != 1 || len(ts.Series[0].Points) == 0 {
		t.Error("/debug/timeseries has no retained sink_processed_total points")
	}
	if !strings.Contains(get("/metrics"), "tstorm_health_level ") {
		t.Error("/metrics missing the tstorm_health_level family")
	}
}
