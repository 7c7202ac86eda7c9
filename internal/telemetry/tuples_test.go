package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tstorm/internal/live"
	"tstorm/internal/tracing"
)

// fedCollector returns a collector holding one completed tree: root 0x64
// emitted at t=0ms, split(task 1) reached over an inter-node hop and
// executing 1ms→4ms→6ms, count(task 2) over a local hop executing
// 6ms→7ms→10ms, acked at 12ms.
func fedCollector(t *testing.T) *tracing.Collector {
	t.Helper()
	c := tracing.NewCollector(tracing.Config{Settle: time.Millisecond})
	ms := func(v float64) int64 { return int64(v * 1e6) }
	c.Add([]tracing.Span{
		{Root: 0x64, Self: 0x64, Kind: tracing.KindRoot, Topology: "wc", Component: "reader", Task: 0, EmitAt: ms(0)},
		{Root: 0x64, Self: 7, Parent: 0x64, Kind: tracing.KindExecute, Topology: "wc", Component: "split", Task: 1,
			Boundary: tracing.BoundaryInterNode, SentAt: ms(0.5), StartAt: ms(4), EndAt: ms(6)},
		{Root: 0x64, Self: 8, Parent: 7, Kind: tracing.KindExecute, Topology: "wc", Component: "count", Task: 2,
			Boundary: tracing.BoundaryLocal, SentAt: ms(6), StartAt: ms(7), EndAt: ms(10)},
		{Root: 0x64, Self: 0x64, Kind: tracing.KindAck, Topology: "wc", Component: "reader", Task: 0, AckAt: ms(12)},
	})
	time.Sleep(5 * time.Millisecond)
	// The sweep runs inside Add; an unrelated root triggers finalization.
	c.Add([]tracing.Span{{Root: 0x999, Self: 0x999, Kind: tracing.KindRoot, EmitAt: ms(20)}})
	if st := c.Stats(); st.Completed != 1 {
		t.Fatalf("fixture tree did not finalize: %+v", st)
	}
	return c
}

func tupleServer(t *testing.T, c *tracing.Collector, pprofOn bool) *Server {
	t.Helper()
	srv, err := NewServer(Config{
		Totals: func() live.Totals { return live.Totals{TraceSampled: 3, TraceSpanDropped: 1} },
		Tuples: c,
		Pprof:  pprofOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDebugTuplesJSON(t *testing.T) {
	srv := tupleServer(t, fedCollector(t), false)
	code, body := scrape(t, srv.mux, "/debug/tuples")
	if code != http.StatusOK {
		t.Fatalf("/debug/tuples status %d: %s", code, body)
	}
	var doc tuplesDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.SampledRoots != 3 || doc.SpanDropped != 1 {
		t.Errorf("counters = %d/%d, want 3/1", doc.SampledRoots, doc.SpanDropped)
	}
	if doc.Completed != 1 || doc.Pending != 1 || len(doc.Trees) != 1 {
		t.Fatalf("doc = completed %d pending %d trees %d, want 1/1/1", doc.Completed, doc.Pending, len(doc.Trees))
	}
	tr := doc.Trees[0]
	if tr.CompletionMs != 12 || len(tr.Path) != 2 {
		t.Fatalf("tree = completion %.1fms, %d path steps; want 12ms, 2", tr.CompletionMs, len(tr.Path))
	}
	// The acceptance invariant: boundary-class shares sum to the
	// completion latency (within 1%; here exactly by construction).
	var sum float64
	for _, v := range tr.Shares {
		sum += v
	}
	if diff := sum - tr.CompletionMs; diff > 0.01*tr.CompletionMs || diff < -0.01*tr.CompletionMs {
		t.Errorf("shares sum %.4f vs completion %.4f", sum, tr.CompletionMs)
	}
	if tr.Shares[tracing.BoundaryInterNode] != 4 || tr.Shares[tracing.BoundaryLocal] != 1 ||
		tr.Shares[tracing.ShareExecute] != 5 || tr.Shares[tracing.ShareAck] != 2 {
		t.Errorf("share decomposition wrong: %v", tr.Shares)
	}
}

func TestDebugTuplesText(t *testing.T) {
	srv := tupleServer(t, fedCollector(t), false)
	req := httptest.NewRequest(http.MethodGet, "/debug/tuples?format=text", nil)
	w := httptest.NewRecorder()
	srv.mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"tree 0000000000000064 wc completion 12.000ms spans 4",
		"reader/0 emit",
		"[inter-node] split/1 exec 2.000ms",
		"[local] count/2 exec 3.000ms",
		"+2.000ms ack",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("timeline missing %q in:\n%s", want, body)
		}
	}
}

func TestDebugTuplesDisabled(t *testing.T) {
	srv, err := NewServer(Config{Totals: func() live.Totals { return live.Totals{} }})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := scrape(t, srv.mux, "/debug/tuples"); code != http.StatusNotFound {
		t.Fatalf("/debug/tuples without a collector: status %d, want 404", code)
	}
}

// TestTraceMetricFamiliesGated: with a collector the tstorm_trace_* tuple
// families appear with correct values; without one the document carries no
// tuple-tracing family (the event-recorder's tstorm_trace_dropped_total is
// a different, pre-existing family and must not match).
func TestTraceMetricFamiliesGated(t *testing.T) {
	srv := tupleServer(t, fedCollector(t), false)
	_, body := scrape(t, srv.mux, "/metrics")
	for _, want := range []string{
		"tstorm_trace_sampled_roots_total 3",
		"tstorm_trace_span_dropped_total 1",
		"tstorm_trace_trees_completed_total 1",
		"tstorm_trace_trees_evicted_total 0",
		"tstorm_trace_orphan_spans_total 0",
		"tstorm_trace_trees_pending 1",
		`tstorm_trace_critical_path_share{class="ack"}`,
		`tstorm_trace_critical_path_share{class="execute"}`,
		`tstorm_trace_critical_path_share{class="inter-node"}`,
		`tstorm_trace_critical_path_share{class="local"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	bare, err := NewServer(Config{Totals: func() live.Totals { return live.Totals{TraceSampled: 3} }})
	if err != nil {
		t.Fatal(err)
	}
	_, body = scrape(t, bare.mux, "/metrics")
	for _, stray := range []string{
		"tstorm_trace_sampled_roots_total",
		"tstorm_trace_span_dropped_total",
		"tstorm_trace_trees_completed_total",
		"tstorm_trace_critical_path_share",
	} {
		if strings.Contains(body, stray) {
			t.Errorf("/metrics leaks %q without a collector", stray)
		}
	}
}

// TestReadOnlyEndpoints: every telemetry endpoint answers non-GET/HEAD
// methods with 405 and an Allow header.
func TestReadOnlyEndpoints(t *testing.T) {
	srv := tupleServer(t, fedCollector(t), false)
	paths := []string{
		"/metrics", "/debug/placement", "/debug/trace", "/debug/scheduler",
		"/debug/traffic", "/debug/workers", "/debug/tuples",
	}
	for _, path := range paths {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req := httptest.NewRequest(method, path, strings.NewReader("x"))
			w := httptest.NewRecorder()
			srv.mux.ServeHTTP(w, req)
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, w.Code)
			}
			if allow := w.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow = %q", method, path, allow)
			}
		}
		// HEAD must pass the guard (handlers may still 404 on state).
		req := httptest.NewRequest(http.MethodHead, path, nil)
		w := httptest.NewRecorder()
		srv.mux.ServeHTTP(w, req)
		if w.Code == http.StatusMethodNotAllowed {
			t.Errorf("HEAD %s: rejected with 405", path)
		}
	}
}

func TestPprofGated(t *testing.T) {
	on := tupleServer(t, nil, true)
	if code, body := scrape(t, on.mux, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ with Pprof on: status %d", code)
	}
	if code, _ := scrape(t, on.mux, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}
	off := tupleServer(t, nil, false)
	if code, _ := scrape(t, off.mux, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ with Pprof off: status %d, want 404", code)
	}
}
