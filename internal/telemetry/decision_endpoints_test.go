package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/docstore"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/workloads"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRequestLimitValidation pins the ?n= contract on /debug/trace: absent
// keeps the default, larger values clamp to the configured cap, and
// non-numeric or non-positive input is rejected with a 400.
func TestRequestLimitValidation(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	rec := trace.NewRecorder(16)
	for i := 0; i < 3; i++ {
		rec.Emit(trace.WallEvent(trace.WorkerStarted, "expo", "node01", strconv.Itoa(i)))
	}
	srv, err := NewServer(Config{Engine: eng, Trace: rec, TraceLimit: 2})
	if err != nil {
		t.Fatal(err)
	}

	count := func(path string) int {
		t.Helper()
		code, body := scrape(t, srv.mux, path)
		if code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
		var docs []map[string]any
		if err := json.Unmarshal([]byte(body), &docs); err != nil {
			t.Fatalf("%s not JSON: %v", path, err)
		}
		return len(docs)
	}
	// Default and over-limit requests clamp to TraceLimit=2.
	if got := count("/debug/trace"); got != 2 {
		t.Errorf("default limit returned %d events, want 2", got)
	}
	if got := count("/debug/trace?n=99"); got != 2 {
		t.Errorf("?n=99 returned %d events, want clamp to 2", got)
	}
	if got := count("/debug/trace?n=1"); got != 1 {
		t.Errorf("?n=1 returned %d events, want 1", got)
	}
	for _, q := range []string{"abc", "0", "-3", "1.5"} {
		code, body := scrape(t, srv.mux, "/debug/trace?n="+q)
		if code != http.StatusBadRequest {
			t.Errorf("?n=%s status %d, want 400", q, code)
		}
		if !strings.Contains(body, "invalid n=") {
			t.Errorf("?n=%s error body %q", q, body)
		}
	}
}

// TestServerCloseIdempotent checks Close is safe before Start and when
// called repeatedly after it.
func TestServerCloseIdempotent(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	srv, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close before Start: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSchedulerEndpoint drives /debug/scheduler from a hand-filled
// history: JSON counters and reports, the text timeline, ?n= limiting,
// and the 404 without a history.
func TestSchedulerEndpoint(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	h := decision.NewHistory(8)
	h.Add(&decision.Report{
		Algorithm: "tstorm", Executors: 3, Nodes: 2, NodesUsed: 2,
		PredictedBefore: -1, PredictedAfter: 120, Moved: 3, Applied: true,
		Duration: 2 * time.Millisecond,
	})
	h.Add(&decision.Report{
		Algorithm: "tstorm", Executors: 3, Nodes: 2, NodesUsed: 2,
		PredictedBefore: 120, PredictedAfter: 90, Moved: 1, Applied: false,
		Relaxations: 1, Duration: time.Millisecond,
	})
	srv, err := NewServer(Config{Engine: eng, History: h})
	if err != nil {
		t.Fatal(err)
	}

	code, body := scrape(t, srv.mux, "/debug/scheduler")
	if code != http.StatusOK {
		t.Fatalf("/debug/scheduler status %d", code)
	}
	var doc struct {
		Rounds      int64             `json:"rounds"`
		Moves       int64             `json:"moves"`
		Relaxations int64             `json:"relaxations"`
		Ratio       *float64          `json:"predicted_vs_observed_ratio"`
		Reports     []decision.Report `json:"reports"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("scheduler not JSON: %v\n%s", err, body)
	}
	if doc.Rounds != 2 || doc.Moves != 3 || doc.Relaxations != 1 {
		t.Errorf("counters = %d/%d/%d, want 2/3/1", doc.Rounds, doc.Moves, doc.Relaxations)
	}
	if doc.Ratio != nil {
		t.Errorf("ratio %v without a baseline, want omitted", *doc.Ratio)
	}
	if len(doc.Reports) != 2 || doc.Reports[0].Round != 1 || doc.Reports[1].Round != 2 {
		t.Fatalf("reports = %+v", doc.Reports)
	}

	_, limited := scrape(t, srv.mux, "/debug/scheduler?n=1")
	doc.Reports = nil
	if err := json.Unmarshal([]byte(limited), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Reports) != 1 || doc.Reports[0].Round != 2 {
		t.Errorf("?n=1 returned %+v, want only the newest round", doc.Reports)
	}

	_, text := scrape(t, srv.mux, "/debug/scheduler?format=text")
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 2 {
		t.Fatalf("text timeline has %d lines: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "round 1") || !strings.Contains(lines[0], "inter-node n/a -> 120") ||
		!strings.Contains(lines[0], "[applied]") {
		t.Errorf("first line %q", lines[0])
	}
	if !strings.Contains(lines[1], "inter-node 120 -> 90") || !strings.Contains(lines[1], "[skipped]") {
		t.Errorf("second line %q", lines[1])
	}

	bare, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, bare.mux, "/debug/scheduler"); code != http.StatusNotFound {
		t.Errorf("historyless /debug/scheduler status %d, want 404", code)
	}
}

// TestTrafficEndpoint checks /debug/traffic serves the live matrix and the
// recorded ring, and 404s when neither source exists.
func TestTrafficEndpoint(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	e0 := topology.ExecutorID{Topology: "expo", Component: "s", Index: 0}
	e1 := topology.ExecutorID{Topology: "expo", Component: "work", Index: 0}
	db := loaddb.New(1)
	db.UpdateExecutorLoad(e0, 100)
	db.UpdateTraffic(e0, e1, 42)
	h := decision.NewHistory(2)
	for i := 0; i < 3; i++ {
		h.RecordTraffic(time.Now(), db.Snapshot())
	}
	srv, err := NewServer(Config{Engine: eng, History: h, DB: db})
	if err != nil {
		t.Fatal(err)
	}

	code, body := scrape(t, srv.mux, "/debug/traffic")
	if code != http.StatusOK {
		t.Fatalf("/debug/traffic status %d", code)
	}
	var doc struct {
		Current *decision.TrafficSnapshot  `json:"current"`
		History []decision.TrafficSnapshot `json:"history"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("traffic not JSON: %v\n%s", err, body)
	}
	if doc.Current == nil || len(doc.Current.Flows) != 1 || doc.Current.Flows[0].Rate != 42 {
		t.Fatalf("current snapshot = %+v", doc.Current)
	}
	if doc.Current.ExecLoad[0].MHz != 100 {
		t.Errorf("current exec load = %+v", doc.Current.ExecLoad)
	}
	if len(doc.History) != 2 {
		t.Errorf("history length %d, want ring capacity 2", len(doc.History))
	}

	doc.Current = nil
	_, limited := scrape(t, srv.mux, "/debug/traffic?n=1")
	doc.History = nil
	if err := json.Unmarshal([]byte(limited), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.History) != 1 {
		t.Errorf("?n=1 history length %d, want 1", len(doc.History))
	}

	bare, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, bare.mux, "/debug/traffic"); code != http.StatusNotFound {
		t.Errorf("sourceless /debug/traffic status %d, want 404", code)
	}
}

// TestGeneratorEventsOnTrace: on a wall clock the generator's own events
// join the engine's timeline, so /debug/trace shows a forced Reschedule as
// schedule-generated (after the engine's apply events) and a hot swap as
// algorithm-swapped.
func TestGeneratorEventsOnTrace(t *testing.T) {
	rec := trace.NewRecorder(64)
	eng, initial := buildEngine(t, rec)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	// Three executors at 1000 MHz each on one 2000 MHz node: Algorithm 1
	// must spread them over both nodes.
	db := loaddb.New(0.5)
	loads := map[topology.ExecutorID]float64{}
	for e := range initial.Executors {
		loads[e] = 1000
	}
	db.ApplyWindow(loads, nil)
	gen, err := live.StartGenerator(eng, db, live.GeneratorConfig{
		Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.10,
	}, core.NewTrafficAware(1.5))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()
	if !gen.Reschedule() {
		t.Fatal("forced reschedule applied nothing")
	}
	if err := gen.SwapTo("default"); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(Config{Engine: eng, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	code, body := scrape(t, srv.mux, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	var docs []traceEventDoc
	if err := json.Unmarshal([]byte(body), &docs); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, body)
	}
	var kinds []string
	for _, d := range docs {
		if d.Time == "" {
			t.Errorf("event %+v has no wall time", d)
		}
		kinds = append(kinds, d.Kind)
	}
	at := func(kind trace.Kind) int {
		for i := len(kinds) - 1; i >= 0; i-- {
			if kinds[i] == string(kind) {
				return i
			}
		}
		return -1
	}
	gen1, applied, swapped := at(trace.ScheduleGenerated), at(trace.ReassignApplied), at(trace.AlgorithmSwapped)
	if gen1 < 0 || swapped < 0 || applied < 0 || !(applied < gen1 && gen1 < swapped) {
		t.Fatalf("trace kinds %v: want reassign-applied, then schedule-generated, then algorithm-swapped", kinds)
	}
	if d := docs[gen1]; d.Topology != "expo" || !strings.Contains(d.Detail, "algo=tstorm") {
		t.Errorf("schedule-generated event %+v, want topology expo and algo=tstorm", d)
	}
}

// TestPlacementOmitsForgottenTopology checks /debug/placement stops
// listing a topology's executors after the monitor Forgets it.
func TestPlacementOmitsForgottenTopology(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	db := loaddb.New(0.5)
	mon := live.StartMonitor(eng, db, time.Hour)
	defer mon.Stop()
	srv, err := NewServer(Config{Engine: eng, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Placements []live.PlacementEntry `json:"placements"`
	}
	_, body := scrape(t, srv.mux, "/debug/placement")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Placements) != 3 {
		t.Fatalf("placement lists %d executors before Forget, want 3", len(doc.Placements))
	}

	mon.Forget("expo")
	doc.Placements = nil
	_, body = scrape(t, srv.mux, "/debug/placement")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	for _, p := range doc.Placements {
		if p.Executor.Topology == "expo" {
			t.Fatalf("forgotten topology still listed: %+v", p)
		}
	}
	if len(doc.Placements) != 0 {
		t.Fatalf("placement lists %d executors after Forget, want 0", len(doc.Placements))
	}
}

// TestPredictedVsObservedRatioLive is the end-to-end reconciliation check:
// a self-fed Word Count runs on four emulated nodes, the monitor feeds the
// EWMA database, and after a forced reschedule plus a converged re-baseline
// the ratio gauge on /metrics must sit within a factor of two of reality.
func TestPredictedVsObservedRatioLive(t *testing.T) {
	cl, err := cluster.Uniform(4, 4, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Sink = docstore.NewStore()
	app, err := workloads.NewSelfFedWordCount(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case start: everything on one slot, so the reschedule must
	// spread the topology and make real inter-node traffic to reconcile.
	initial := cluster.NewAssignment(0)
	for _, e := range app.Topology.Executors() {
		initial.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
	}
	eng, err := live.NewEngine(live.Config{
		SpoutHaltDelay: 5 * time.Millisecond, DrainTimeout: 2 * time.Second}, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	const period = 100 * time.Millisecond
	db := loaddb.New(0.5)
	mon := live.StartMonitor(eng, db, period)
	defer mon.Stop()
	hist := decision.NewHistory(8)
	gen, err := live.StartGenerator(eng, db, live.GeneratorConfig{
		Period:               time.Hour, // manual rounds only
		CapacityFraction:     0.9,
		ImprovementThreshold: 0.10,
		History:              hist,
	}, core.NewTrafficAware(1.5))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()
	srv, err := NewServer(Config{Engine: eng, Monitor: mon, History: hist, DB: db})
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 20*time.Second, "warm-up windows", func() bool {
		return mon.Samples() >= 4 && eng.Totals().SinkProcessed > 2000
	})
	if !gen.Reschedule() {
		t.Fatal("forced reschedule applied nothing")
	}
	// Let the EWMA converge to post-migration rates, then take a second
	// round so the baseline prediction reflects the placement that is
	// actually live.
	samplesAfter := mon.Samples()
	waitFor(t, 20*time.Second, "post-migration windows", func() bool {
		return mon.Samples() >= samplesAfter+5
	})
	gen.Generate()
	time.Sleep(6 * period)

	_, body := scrape(t, srv.mux, "/metrics")
	var ratio float64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "tstorm_scheduler_predicted_vs_observed_ratio "); ok {
			ratio, err = strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable ratio %q: %v", v, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("ratio gauge missing from scrape:\n%s", body)
	}
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("predicted/observed ratio = %.3f, want within [0.5, 2.0]", ratio)
	}
	if !strings.Contains(body, "tstorm_scheduler_rounds_total 2\n") {
		t.Error("rounds counter missing or wrong")
	}
	if !strings.Contains(body, "tstorm_scheduler_decision_duration_ms_count 2\n") {
		t.Error("decision duration histogram missing or wrong")
	}

	// The last report must explain its placements: the tstorm algorithm
	// records every candidate slot with gain or rejection constraint.
	last, ok := hist.Last()
	if !ok || last.Algorithm != "tstorm" {
		t.Fatalf("last report = %+v ok=%v", last, ok)
	}
	if len(last.Placements) != app.Topology.NumExecutors() {
		t.Fatalf("last report has %d placements, want %d", len(last.Placements), app.Topology.NumExecutors())
	}
	for _, p := range last.Placements {
		if len(p.Options) == 0 {
			t.Fatalf("placement %v has no candidate options", p.Executor)
		}
	}
	// Applying a schedule must have moved executors off the packed node.
	if first, ok := hist.Reports()[0], true; !ok || !first.Applied || first.Moved == 0 {
		t.Errorf("first round = %+v, want an applied round with moves", first)
	}
}
