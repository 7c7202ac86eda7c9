package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/metrics"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tuple"
)

// burstSpout emits bursts of sequence-numbered tuples.
type burstSpout struct{ seq int64 }

func (s *burstSpout) Open(*engine.Context) {}
func (s *burstSpout) NextTuple(em engine.SpoutEmitter) {
	for i := 0; i < 8; i++ {
		em.Emit("", tuple.Values{s.seq})
		s.seq++
	}
}
func (s *burstSpout) Ack(any)  {}
func (s *burstSpout) Fail(any) {}

type sinkBolt struct{}

func (sinkBolt) Prepare(*engine.Context)             {}
func (sinkBolt) Execute(tuple.Tuple, engine.Emitter) {}

// buildEngine submits a spout→bolt topology on two single-slot nodes,
// everything initially on node01. The engine is NOT started, so repeated
// scrapes see frozen state.
func buildEngine(t *testing.T, rec *trace.Recorder) (*live.Engine, *cluster.Assignment) {
	t.Helper()
	b := topology.NewBuilder("expo", 2)
	b.Spout("s", 1).Output("", "id")
	b.Bolt("work", 2).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &burstSpout{} }},
		Bolts:         map[string]func() engine.Bolt{"work": func() engine.Bolt { return sinkBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
	}
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		initial.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
	}
	lcfg := live.Config{SpoutHaltDelay: 5 * time.Millisecond,
		DrainTimeout: 2 * time.Second, Trace: rec}
	eng, err := live.NewEngine(lcfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	return eng, initial
}

func scrape(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

// TestMetricsDeterministicAndComplete scrapes an idle engine twice: both
// documents must be byte-identical (fixed family order, pre-sorted
// samples) and structurally complete — every family present with help and
// type, and the never-written latency histogram still exposing its full
// +Inf/sum/count series.
func TestMetricsDeterministicAndComplete(t *testing.T) {
	eng, _ := buildEngine(t, trace.NewRecorder(8))
	srv, err := NewServer(Config{Engine: eng, Trace: trace.NewRecorder(8)})
	if err != nil {
		t.Fatal(err)
	}
	code, first := scrape(t, srv.mux, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	_, second := scrape(t, srv.mux, "/metrics")
	if first != second {
		t.Fatal("two scrapes of identical state differ byte-for-byte")
	}

	for _, family := range []string{
		"tstorm_engine_roots_emitted_total",
		"tstorm_engine_tuples_sent_total",
		"tstorm_engine_inter_node_sent_total",
		"tstorm_engine_inter_process_sent_total",
		"tstorm_engine_processed_total",
		"tstorm_engine_sink_processed_total",
		"tstorm_engine_migrations_total",
		"tstorm_engine_applies_total",
		"tstorm_ack_acked_total",
		"tstorm_ack_late_total",
		"tstorm_ack_failed_total",
		"tstorm_ack_replayed_total",
		"tstorm_ack_combined_total",
		"tstorm_engine_dropped_total",
		"tstorm_worker_crashes_total",
		"tstorm_worker_restarts_total",
		"tstorm_pool_hits_total",
		"tstorm_pool_misses_total",
		"tstorm_ack_pending",
		"tstorm_latency_ms",
		"tstorm_completion_latency_ms",
		"tstorm_executor_queue_depth",
		"tstorm_executor_queue_capacity",
		"tstorm_executor_processed_total",
		"tstorm_executor_emitted_total",
		"tstorm_executor_process_latency_ms",
		"tstorm_edge_tuples_total",
		"tstorm_trace_dropped_total",
	} {
		if !strings.Contains(first, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(first, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}
	// The engine never ran: the latency histogram is empty but its series
	// is complete, and executor gauges cover both bolts.
	for _, line := range []string{
		`tstorm_latency_ms_bucket{le="+Inf"} 0`,
		"tstorm_latency_ms_sum 0",
		"tstorm_latency_ms_count 0",
		`tstorm_executor_queue_capacity{topology="expo",component="work",index="0"} 512`,
		`tstorm_executor_queue_capacity{topology="expo",component="work",index="1"} 512`,
		`tstorm_executor_processed_total{topology="expo",component="s",index="0"} 0`,
		`tstorm_executor_process_latency_ms_count{topology="expo",component="work",index="0"} 0`,
		"tstorm_engine_tuples_sent_total 0",
		"tstorm_trace_dropped_total 0",
		"tstorm_ack_acked_total 0",
		"tstorm_ack_pending 0",
		`tstorm_completion_latency_ms_bucket{le="+Inf"} 0`,
		"tstorm_completion_latency_ms_count 0",
	} {
		if !strings.Contains(first, line+"\n") {
			t.Errorf("scrape missing line %q", line)
		}
	}
	// No monitor was configured, so its families must be absent.
	if strings.Contains(first, "tstorm_monitor_") {
		t.Error("monitor families present without a monitor")
	}
}

// TestEscapeLabel pins the exposition escaping rules.
func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"line\nbreak", `line\nbreak`},
		{"all\\\"\n", `all\\\"\n`},
		{"", ""},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestFormatValue pins the sample-value rendering.
func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-3, "-3"},
		{0.5, "0.5"},
		{1e20, "1e+20"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestHistogramExposition checks the cumulative-bucket invariants on a
// small hand-filled histogram, and the complete zero series for an empty
// one.
func TestHistogramExposition(t *testing.T) {
	h := metrics.NewHistogram(1e-4, 1e4, 10)
	for _, v := range []float64{1, 1, 10, 100} {
		h.Add(v)
	}
	var e expo
	e.histogram("m", []label{{"x", "y"}}, h)
	lines := strings.Split(strings.TrimSpace(e.b.String()), "\n")
	// 3 non-empty bins + +Inf + sum + count.
	if len(lines) != 6 {
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	if !strings.HasSuffix(lines[0], " 2") || !strings.HasSuffix(lines[1], " 3") ||
		!strings.HasSuffix(lines[2], " 4") {
		t.Errorf("buckets are not cumulative: %q", lines[:3])
	}
	if want := `m_bucket{x="y",le="+Inf"} 4`; lines[3] != want {
		t.Errorf("inf bucket %q, want %q", lines[3], want)
	}
	if want := `m_sum{x="y"} 112`; lines[4] != want {
		t.Errorf("sum %q, want %q", lines[4], want)
	}
	if want := `m_count{x="y"} 4`; lines[5] != want {
		t.Errorf("count %q, want %q", lines[5], want)
	}

	var empty expo
	empty.histogram("m", nil, metrics.NewHistogram(1e-4, 1e4, 10))
	want := "m_bucket{le=\"+Inf\"} 0\nm_sum 0\nm_count 0\n"
	if got := empty.b.String(); got != want {
		t.Errorf("empty histogram series %q, want %q", got, want)
	}
}

// TestPlacementReflectsApply starts the engine, applies a new assignment,
// and checks /debug/placement reports the moved executor and the bumped
// applies counter immediately after Apply returns.
func TestPlacementReflectsApply(t *testing.T) {
	eng, initial := buildEngine(t, nil)
	srv, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	next := initial.Clone()
	next.ID = 1
	moved := topology.ExecutorID{Topology: "expo", Component: "work", Index: 1}
	n2 := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	next.Assign(moved, n2)
	if _, err := eng.Apply("expo", next); err != nil {
		t.Fatal(err)
	}

	code, body := scrape(t, srv.mux, "/debug/placement")
	if code != http.StatusOK {
		t.Fatalf("/debug/placement status %d", code)
	}
	var doc struct {
		Applies    int64 `json:"applies"`
		Migrations int64 `json:"migrations"`
		Placements []struct {
			Executor topology.ExecutorID `json:"executor"`
			Slot     cluster.SlotID      `json:"slot"`
		} `json:"placements"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("placement is not JSON: %v\n%s", err, body)
	}
	if doc.Applies != 1 || doc.Migrations != 1 {
		t.Errorf("applies/migrations = %d/%d, want 1/1", doc.Applies, doc.Migrations)
	}
	if len(doc.Placements) != 3 {
		t.Fatalf("%d placements, want 3", len(doc.Placements))
	}
	found := false
	for _, p := range doc.Placements {
		if p.Executor == moved {
			found = true
			if p.Slot != n2 {
				t.Errorf("moved executor reported on %v, want %v", p.Slot, n2)
			}
		}
	}
	if !found {
		t.Error("moved executor missing from placement")
	}
}

// TestTraceEndpoint checks the JSON and text renderings, the ?n= limit,
// and the 404 when no recorder is attached.
func TestTraceEndpoint(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	rec := trace.NewRecorder(16)
	rec.Emit(trace.Event{At: sim.Time(2500 * time.Millisecond), Kind: trace.WorkerStarted, Where: "node01"})
	rec.Emit(trace.WallEvent(trace.SpoutsHalted, "expo", "", "reassign"))
	rec.Emit(trace.WallEvent(trace.SpoutsResumed, "expo", "", ""))
	srv, err := NewServer(Config{Engine: eng, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}

	code, body := scrape(t, srv.mux, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	var docs []map[string]any
	if err := json.Unmarshal([]byte(body), &docs); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(docs) != 3 {
		t.Fatalf("%d events, want 3", len(docs))
	}
	if docs[0]["sim_seconds"] != 2.5 || docs[0]["time"] != nil {
		t.Errorf("sim event rendered %v", docs[0])
	}
	if docs[1]["time"] == nil || docs[1]["sim_seconds"] != nil {
		t.Errorf("wall event rendered %v", docs[1])
	}
	if docs[1]["kind"] != "spouts-halted" || docs[1]["detail"] != "reassign" {
		t.Errorf("wall event fields %v", docs[1])
	}

	_, limited := scrape(t, srv.mux, "/debug/trace?n=1")
	docs = nil
	if err := json.Unmarshal([]byte(limited), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0]["kind"] != "spouts-resumed" {
		t.Errorf("?n=1 returned %v, want the newest event", docs)
	}

	_, text := scrape(t, srv.mux, "/debug/trace?format=text")
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "t=2.5s worker-started") {
		t.Errorf("text timeline %q", lines)
	}

	bare, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, bare.mux, "/debug/trace"); code != http.StatusNotFound {
		t.Errorf("traceless /debug/trace status %d, want 404", code)
	}
}

// TestServerStartServesHTTP exercises the real listener path once.
func TestServerStartServesHTTP(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	srv, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("content type %q", got)
	}
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start should fail")
	}
}

// TestScrapeUnderChurnStress hammers every endpoint while the engine runs
// full-tilt and Apply flips the placement back and forth — the lock-free
// snapshot claim, checked under -race. Run explicitly by ci.sh.
func TestScrapeUnderChurnStress(t *testing.T) {
	rec := trace.NewRecorder(64)
	eng, initial := buildEngine(t, rec)
	srv, err := NewServer(Config{Engine: eng, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	flipped := initial.Clone()
	flipped.ID = 1
	n2 := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	for i := 0; i < 2; i++ {
		flipped.Assign(topology.ExecutorID{Topology: "expo", Component: "work", Index: i}, n2)
	}

	const applies = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if code, _ := scrape(t, srv.mux, path); code != http.StatusOK {
						t.Errorf("%s status %d under churn", path, code)
						return
					}
				}
			}
		}([]string{"/metrics", "/debug/placement", "/debug/trace"}[i])
	}

	cur := initial
	for i := 0; i < applies; i++ {
		next := flipped.Clone()
		if i%2 == 1 {
			next = initial.Clone()
		}
		next.ID = int64(i + 1)
		if _, err := eng.Apply("expo", next); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		cur = next
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// After the churn the scrape still reflects a consistent engine: the
	// applies counter matches and the placement equals the last assignment.
	_, body := scrape(t, srv.mux, "/metrics")
	if !strings.Contains(body, fmt.Sprintf("tstorm_engine_applies_total %d\n", applies)) {
		t.Error("applies counter missing or wrong after churn")
	}
	got, ok := eng.CurrentAssignment("expo")
	if !ok || !got.Equal(cur) {
		t.Error("assignment diverged under churn")
	}
}
