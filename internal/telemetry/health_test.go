package telemetry

// Tests for the observability layer's HTTP surface: the health-off
// byte-identity guarantee on /metrics, the /debug/timeseries and
// /debug/health endpoints with their uniform JSON 400 validation, and
// the health-under-churn stress run ci.sh drives under -race.

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/health"
	"tstorm/internal/live"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tsdb"
)

// buildHealth assembles the observability layer over a live engine the
// way the facade does: ring-buffer tsdb, collector over the engine taps,
// and the standard rule set.
func buildHealth(eng *live.Engine, rec *trace.Recorder) (*tsdb.DB, *health.Collector, *health.Engine) {
	db := tsdb.NewDB(0)
	col := health.NewCollector(db, health.Sources{
		Totals:            eng.Totals,
		PendingRoots:      eng.PendingRoots,
		QueueSaturation:   func() (float64, int) { return eng.QueueSaturation(0.8) },
		CompletionLatency: eng.CompletionLatencySnapshot,
	})
	return db, col, health.New(health.StandardRules(db, health.RuleOptions{}), rec)
}

// TestHealthOffScrapeByteIdentical pins the gating guarantee: a scrape
// with the health layer wired is the health-off document plus a trailing
// tstorm_health_* block — nothing inside the shared prefix moves.
func TestHealthOffScrapeByteIdentical(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	off, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	db, col, heng := buildHealth(eng, nil)
	now := time.Now()
	for i := 0; i < 3; i++ {
		col.Collect(now.Add(time.Duration(i) * time.Second))
		heng.Evaluate(now.Add(time.Duration(i) * time.Second))
	}
	on, err := NewServer(Config{Engine: eng, TSDB: db, Health: heng})
	if err != nil {
		t.Fatal(err)
	}

	_, offDoc := scrape(t, off.mux, "/metrics")
	_, onDoc := scrape(t, on.mux, "/metrics")
	if strings.Contains(offDoc, "tstorm_health") {
		t.Fatal("health families leaked into a health-off scrape")
	}
	if !strings.HasPrefix(onDoc, offDoc) {
		t.Fatal("health-on scrape does not extend the health-off document byte-for-byte")
	}
	tail := strings.TrimPrefix(onDoc, offDoc)
	if !strings.HasPrefix(tail, "# HELP tstorm_health_level ") {
		t.Errorf("trailing block starts %q, want the tstorm_health_level family", tail[:min(len(tail), 60)])
	}
	for _, family := range []string{
		"tstorm_health_level", "tstorm_health_rule_level",
		"tstorm_health_evals_total", "tstorm_health_transitions_total",
	} {
		if !strings.Contains(tail, "# HELP "+family+" ") {
			t.Errorf("health block missing %s", family)
		}
	}
	// Every standard rule exports a labelled level sample (rules whose
	// series have no source still report, as "no data" holding ok).
	if got := strings.Count(tail, "tstorm_health_rule_level{"); got != 7 {
		t.Errorf("rule_level samples = %d, want 7 (the full standard rule set)", got)
	}
}

// TestTimeseriesEndpoint exercises /debug/timeseries: the full dump, the
// ?family= filter, the ?window= cut, and the 404 without a tsdb.
func TestTimeseriesEndpoint(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	db := tsdb.NewDB(8)
	sr := db.Register("demo_total", tsdb.Counter)
	base := time.Now().Add(-10 * time.Second)
	for i := 0; i < 5; i++ {
		sr.Append(base.Add(time.Duration(i)*time.Second).UnixNano(), float64(i*100))
	}
	srv, err := NewServer(Config{Engine: eng, TSDB: db})
	if err != nil {
		t.Fatal(err)
	}

	code, body := scrape(t, srv.mux, "/debug/timeseries")
	if code != http.StatusOK {
		t.Fatalf("/debug/timeseries status %d", code)
	}
	var doc struct {
		Series []struct {
			Name   string `json:"name"`
			Kind   string `json:"kind"`
			Points []struct {
				T int64   `json:"t"`
				V float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Name != "demo_total" || doc.Series[0].Kind != "counter" {
		t.Fatalf("series = %+v", doc.Series)
	}
	if len(doc.Series[0].Points) != 5 {
		t.Errorf("points = %d, want 5", len(doc.Series[0].Points))
	}

	code, _ = scrape(t, srv.mux, "/debug/timeseries?family=demo_total")
	if code != http.StatusOK {
		t.Errorf("?family=demo_total status %d", code)
	}
	// The window cut keeps only recent points (the oldest is ~10 s old).
	code, body = scrape(t, srv.mux, "/debug/timeseries?family=demo_total&window=7s")
	if code != http.StatusOK {
		t.Fatalf("windowed status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Series[0].Points); got >= 5 || got == 0 {
		t.Errorf("windowed points = %d, want a strict recent subset", got)
	}

	// No tsdb → 404.
	bare, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, bare.mux, "/debug/timeseries"); code != http.StatusNotFound {
		t.Errorf("no-tsdb status %d, want 404", code)
	}
}

// TestHealthEndpoint exercises /debug/health in both formats plus the
// 404 without an engine.
func TestHealthEndpoint(t *testing.T) {
	eng, _ := buildEngine(t, nil)
	db, col, heng := buildHealth(eng, nil)
	_ = db
	now := time.Now()
	col.Collect(now)
	heng.Evaluate(now)
	srv, err := NewServer(Config{Engine: eng, TSDB: db, Health: heng})
	if err != nil {
		t.Fatal(err)
	}

	code, body := scrape(t, srv.mux, "/debug/health")
	if code != http.StatusOK {
		t.Fatalf("/debug/health status %d", code)
	}
	var st struct {
		Overall string `json:"overall"`
		Evals   int64  `json:"evals"`
		Rules   []struct {
			Rule  string `json:"rule"`
			Level string `json:"level"`
		} `json:"rules"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if st.Overall != "ok" || st.Evals != 1 || len(st.Rules) == 0 {
		t.Errorf("status = %+v", st)
	}

	code, body = scrape(t, srv.mux, "/debug/health?format=text")
	if code != http.StatusOK {
		t.Fatalf("text format status %d", code)
	}
	if !strings.HasPrefix(body, "overall ok") || !strings.Contains(body, "throughput-floor") {
		t.Errorf("text panel:\n%s", body)
	}

	bare, err := NewServer(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, bare.mux, "/debug/health"); code != http.StatusNotFound {
		t.Errorf("no-health status %d, want 404", code)
	}
}

// TestDebugValidationJSONBody pins the uniform 400 contract: malformed
// ?n=, ?window=, and ?family= parameters answer with a JSON
// {"error": ...} body on every endpoint that accepts them.
func TestDebugValidationJSONBody(t *testing.T) {
	rec := trace.NewRecorder(8)
	eng, _ := buildEngine(t, rec)
	db, _, heng := buildHealth(eng, nil)
	srv, err := NewServer(Config{Engine: eng, Trace: rec, TSDB: db, Health: heng})
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"/debug/trace?n=abc",
		"/debug/trace?n=0",
		"/debug/trace?n=-3",
		"/debug/timeseries?window=abc",
		"/debug/timeseries?window=-5s",
		"/debug/timeseries?window=0s",
		"/debug/timeseries?family=no_such_series",
	}
	for _, path := range cases {
		code, body := scrape(t, srv.mux, path)
		if code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", path, code)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s body %q: want a JSON {\"error\": ...} document", path, body)
		}
	}
	// The unknown-family rejection names the known series.
	_, body := scrape(t, srv.mux, "/debug/timeseries?family=no_such_series")
	if !strings.Contains(body, "sink_processed_total") {
		t.Errorf("unknown-family error does not list known series: %q", body)
	}
}

// TestHealthUnderChurnStress hammers /metrics, /debug/timeseries, and
// /debug/health while the engine runs full-tilt, Apply flips the
// placement, and a fast sampler feeds the tsdb and health engine — the
// single-writer ring and lock-free reader claims, checked under -race.
// Run explicitly by ci.sh.
func TestHealthUnderChurnStress(t *testing.T) {
	rec := trace.NewRecorder(64)
	eng, initial := buildEngine(t, rec)
	db, col, heng := buildHealth(eng, rec)
	smp := tsdb.NewSampler(2*time.Millisecond, func(now time.Time) {
		col.Collect(now)
		heng.Evaluate(now)
	})
	srv, err := NewServer(Config{Engine: eng, Trace: rec, TSDB: db, Health: heng})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	smp.Start()
	defer smp.Stop()

	flipped := initial.Clone()
	flipped.ID = 1
	n2 := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	for i := 0; i < 2; i++ {
		flipped.Assign(topology.ExecutorID{Topology: "expo", Component: "work", Index: i}, n2)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/timeseries", "/debug/health", "/debug/timeseries?window=1s"} {
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
		}(path)
	}

	for i := 0; i < 8; i++ {
		next := flipped.Clone()
		if i%2 == 1 {
			next = initial.Clone()
		}
		next.ID = int64(i + 1)
		if _, err := eng.Apply("expo", next); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if sr := db.Lookup(health.SeriesSinkProcessed); sr == nil || len(sr.Last(1)) == 0 {
		t.Error("no retained sink_processed_total samples after churn")
	}
}
