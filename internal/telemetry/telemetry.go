// Package telemetry exposes the live runtime's measurements over HTTP: a
// Prometheus text-format /metrics endpoint (cumulative counters and
// histograms, safe to scrape while benchmarks drain their own windows),
// /debug/placement (the current routing snapshot's executor→slot map as
// JSON), /debug/trace (recent wall-clock runtime events from the ring
// buffer, as JSON or a plain-text timeline), /debug/scheduler (the
// decision-report ring explaining every Algorithm 1 placement, as JSON or
// a text timeline), /debug/traffic (the current and historical
// traffic-matrix snapshots the scheduler decided on), /debug/tuples
// (sampled end-to-end tuple trees with critical-path latency attribution,
// as JSON or a text flame timeline), /debug/timeseries (the retained
// ring-buffer series the health sampler writes), and /debug/health (the
// SLO engine's per-rule verdicts). All endpoints are read-only: any
// method besides GET/HEAD is answered with 405, and malformed query
// parameters (?n=, ?window=, ?family=) are answered with a 400 carrying
// a JSON {"error": ...} body. Config.Pprof additionally mounts the
// net/http/pprof profiling handlers under /debug/pprof/.
//
// Everything the handlers read comes from lock-free snapshots — the
// engine's copy-on-write route table, per-executor atomics, and the
// cumulative side of the latency histogram — so a scraper polling at any
// rate never contends with the emission hot path or with a concurrent
// re-assignment.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/health"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/trace"
	"tstorm/internal/tracing"
	"tstorm/internal/tsdb"
)

// WorkerStatus is one worker process's liveness row, as reported by a
// distributed driver through Config.Workers (defined here so the
// telemetry layer needs no dependency on the dist package).
type WorkerStatus struct {
	Slot     cluster.SlotID `json:"slot"`
	PID      int            `json:"pid"`
	Alive    bool           `json:"alive"`
	Restarts int            `json:"restarts"`
	DataAddr string         `json:"data_addr,omitempty"`
	Pending  int64          `json:"pending"`
	// DroppedTuples counts the tuples in data-plane frames the slot's
	// worker could not get to a peer (see dist.WorkerStatus).
	DroppedTuples int64 `json:"dropped_tuples"`
}

// Config selects what a Server exposes. An engine-backed server sets
// Engine; a distributed driver sets the Totals/Placement/Workers
// functions instead (at least one of Engine or Totals is required).
// Monitor and Trace add their endpoints' data when present.
type Config struct {
	// Engine is the live engine to instrument. Nil for the distributed
	// backend, whose per-executor state lives in other processes — the
	// function fields below feed the fleet-level aggregates instead.
	Engine *live.Engine
	// Totals supplies the counter snapshot when Engine is nil (the
	// distributed driver's fleet aggregation).
	Totals func() live.Totals
	// Placement supplies the executor→slot map when Engine is nil.
	Placement func() []live.PlacementEntry
	// Workers, when non-nil, adds /debug/workers and the tstorm_worker_up /
	// tstorm_worker_process_restarts_total /
	// tstorm_worker_dropped_tuples_total per-process families — the
	// distributed backend's worker fleet.
	Workers func() []WorkerStatus
	// Monitor, when non-nil, contributes the sampling gauges
	// (tstorm_monitor_*) to /metrics.
	Monitor *live.Monitor
	// Trace, when non-nil, backs /debug/trace and the dropped-events
	// counter. Typically the same recorder as the engine's Config.Trace.
	Trace *trace.Recorder
	// TraceLimit caps how many events /debug/trace returns per request
	// (default 256; the ?n= query parameter can only lower it).
	TraceLimit int
	// History, when non-nil, backs /debug/scheduler, the historical half
	// of /debug/traffic, and the tstorm_scheduler_* metric families —
	// including the predicted-vs-observed reconciliation gauge computed
	// against the engine's inter-node counter at scrape time.
	History *decision.History
	// DB, when non-nil, contributes the live traffic matrix to
	// /debug/traffic.
	DB *loaddb.DB
	// Tuples, when non-nil, backs /debug/tuples and the tstorm_trace_*
	// tuple-tracing families — the collector assembling sampled per-tuple
	// spans into trees (the engine's TraceCollector, or the distributed
	// driver's). Absent, the tracing families are omitted entirely so a
	// tracing-free scrape stays byte-identical to earlier releases.
	Tuples *tracing.Collector
	// Pprof registers the net/http/pprof profiling handlers under
	// /debug/pprof/, enabling live CPU/heap/goroutine profiling of a
	// running stack. Off by default: profiling endpoints cost real CPU
	// when hit and should be opted into.
	Pprof bool
	// TSDB, when non-nil, backs /debug/timeseries — the retained
	// ring-buffer series the health sampler writes. Absent, the endpoint
	// answers 404.
	TSDB *tsdb.DB
	// Health, when non-nil, backs /debug/health and contributes the
	// tstorm_health_* metric families. Absent, both are omitted entirely
	// so a health-free scrape stays byte-identical to earlier releases.
	Health *health.Engine
}

// Server serves the telemetry endpoints.
type Server struct {
	cfg Config
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
}

// NewServer builds a server over the given sources (not yet listening).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil && cfg.Totals == nil {
		return nil, fmt.Errorf("telemetry: need an engine or a totals source")
	}
	if cfg.TraceLimit <= 0 {
		cfg.TraceLimit = 256
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", readOnly(s.handleMetrics))
	s.mux.HandleFunc("/debug/placement", readOnly(s.handlePlacement))
	s.mux.HandleFunc("/debug/trace", readOnly(s.handleTrace))
	s.mux.HandleFunc("/debug/scheduler", readOnly(s.handleScheduler))
	s.mux.HandleFunc("/debug/traffic", readOnly(s.handleTraffic))
	s.mux.HandleFunc("/debug/workers", readOnly(s.handleWorkers))
	s.mux.HandleFunc("/debug/tuples", readOnly(s.handleTuples))
	s.mux.HandleFunc("/debug/timeseries", readOnly(s.handleTimeseries))
	s.mux.HandleFunc("/debug/health", readOnly(s.handleHealth))
	if cfg.Pprof {
		// The stock pprof handlers, on the usual paths. Not wrapped in
		// readOnly: /debug/pprof/symbol legitimately accepts POST.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// readOnly rejects every method except GET and HEAD with 405: all
// telemetry endpoints are pure reads, and answering a POST with data would
// mask a misconfigured client.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// totals reads the counter snapshot from whichever source is configured.
func (s *Server) totals() live.Totals {
	if s.cfg.Engine != nil {
		return s.cfg.Engine.Totals()
	}
	return s.cfg.Totals()
}

// placement reads the executor→slot map from whichever source is
// configured (nil when neither is).
func (s *Server) placement() []live.PlacementEntry {
	if s.cfg.Engine != nil {
		return s.cfg.Engine.Placement()
	}
	if s.cfg.Placement != nil {
		return s.cfg.Placement()
	}
	return nil
}

// Start binds addr (e.g. ":9090" or "127.0.0.1:0") and serves in a
// background goroutine. It returns once the listener is bound, so Addr is
// immediately valid.
func (s *Server) Start(addr string) error {
	if s.ln != nil {
		return fmt.Errorf("telemetry: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and open connections. Safe when never started.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleMetrics renders the full Prometheus text-format document. Families
// are written in a fixed order and samples within a family are pre-sorted
// (ExecutorStats and EdgeStats sort by identity), so output ordering is
// deterministic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	eng := s.cfg.Engine
	var e expo

	t := s.totals()
	engineCounters := []struct {
		name, help string
		v          int64
	}{
		{"tstorm_engine_roots_emitted_total", "Spout root tuples emitted.", t.RootsEmitted},
		{"tstorm_engine_tuples_sent_total", "Executor-to-executor transfers.", t.TuplesSent},
		{"tstorm_engine_inter_node_sent_total", "Transfers that crossed an emulated node boundary.", t.InterNodeSent},
		{"tstorm_engine_inter_process_sent_total", "Transfers between slots on one node.", t.InterProcessSent},
		{"tstorm_engine_processed_total", "Tuples processed by bolts.", t.Processed},
		{"tstorm_engine_sink_processed_total", "Tuples processed by terminal bolts.", t.SinkProcessed},
		{"tstorm_engine_migrations_total", "Executors moved by re-assignments.", t.Migrations},
		{"tstorm_engine_applies_total", "Re-assignments applied.", t.Applies},
	}
	for _, c := range engineCounters {
		e.family(c.name, c.help, "counter")
		e.sample(c.name, nil, float64(c.v))
	}

	ackCounters := []struct {
		name, help string
		v          int64
	}{
		{"tstorm_ack_acked_total", "Anchored roots fully processed and acked to a spout.", t.Acked},
		{"tstorm_ack_late_total", "Acked roots whose completion arrived after a timeout.", t.LateAcked},
		{"tstorm_ack_failed_total", "Roots failed by a spout's timeout wheel.", t.FailedRoots},
		{"tstorm_ack_replayed_total", "Re-emits of an already-pending spout message ID.", t.Replayed},
		{"tstorm_ack_combined_total", "XOR acks folded sender-side into a buffered ack for the same root.", t.CtlCombined},
		{"tstorm_engine_dropped_total", "Tuples dropped at (or drained from) dead executors.", t.Dropped},
		{"tstorm_worker_crashes_total", "Executor goroutines killed by fault injection.", t.WorkerCrashes},
		{"tstorm_worker_restarts_total", "Executors restarted by the supervisor.", t.WorkerRestarts},
		{"tstorm_pool_hits_total", "Batch-pool gets served from recycled memory.", t.PoolHits},
		{"tstorm_pool_misses_total", "Batch-pool gets that had to allocate.", t.PoolMisses},
	}
	for _, c := range ackCounters {
		e.family(c.name, c.help, "counter")
		e.sample(c.name, nil, float64(c.v))
	}
	// Per-executor and latency families need in-process executor state;
	// the distributed driver (eng == nil) has none — its workers own it.
	if eng != nil {
		e.family("tstorm_ack_pending", "Anchored roots currently in flight (emitted, not yet acked or failed).", "gauge")
		e.sample("tstorm_ack_pending", nil, float64(eng.PendingRoots()))

		e.family("tstorm_latency_ms", "End-to-end tuple latency, spout emit to terminal bolt (cumulative).", "histogram")
		e.histogram("tstorm_latency_ms", nil, eng.LatencySnapshot())

		e.family("tstorm_completion_latency_ms", "Root completion latency, first spout emit to ack, surviving replays (cumulative).", "histogram")
		e.histogram("tstorm_completion_latency_ms", nil, eng.CompletionLatencySnapshot())

		stats := eng.ExecutorStats()
		execLabels := func(st *live.ExecutorStat) []label {
			return []label{
				{"topology", st.ID.Topology},
				{"component", st.ID.Component},
				{"index", strconv.Itoa(st.ID.Index)},
			}
		}
		e.family("tstorm_executor_queue_depth", "Input-queue depth in tuples.", "gauge")
		for i := range stats {
			if stats[i].Kind == "bolt" {
				e.sample("tstorm_executor_queue_depth", execLabels(&stats[i]), float64(stats[i].QueueLen))
			}
		}
		e.family("tstorm_executor_queue_capacity", "Input-queue bound in tuples.", "gauge")
		for i := range stats {
			if stats[i].Kind == "bolt" {
				e.sample("tstorm_executor_queue_capacity", execLabels(&stats[i]), float64(stats[i].QueueCap))
			}
		}
		e.family("tstorm_executor_processed_total", "Lifetime tuples processed by the executor.", "counter")
		for i := range stats {
			e.sample("tstorm_executor_processed_total", execLabels(&stats[i]), float64(stats[i].Processed))
		}
		e.family("tstorm_executor_emitted_total", "Lifetime tuples emitted by the executor.", "counter")
		for i := range stats {
			e.sample("tstorm_executor_emitted_total", execLabels(&stats[i]), float64(stats[i].Emitted))
		}
		e.family("tstorm_executor_process_latency_ms", "Per-tuple process time (decode + Execute).", "histogram")
		for i := range stats {
			if stats[i].ProcLatency != nil {
				e.histogram("tstorm_executor_process_latency_ms", execLabels(&stats[i]), stats[i].ProcLatency)
			}
		}

		e.family("tstorm_edge_tuples_total", "Tuples transferred per executor pair, by boundary class.", "counter")
		for _, es := range eng.EdgeStats() {
			e.sample("tstorm_edge_tuples_total", []label{
				{"from", es.From.String()},
				{"to", es.To.String()},
				{"boundary", es.Boundary},
			}, float64(es.Tuples))
		}
	}

	if wf := s.cfg.Workers; wf != nil {
		workers := wf()
		alive := 0
		slotLabels := func(ws *WorkerStatus) []label {
			return []label{
				{"node", string(ws.Slot.Node)},
				{"port", strconv.Itoa(ws.Slot.Port)},
			}
		}
		e.family("tstorm_worker_up", "Whether the slot's worker process is registered and live.", "gauge")
		for i := range workers {
			v := 0.0
			if workers[i].Alive {
				v = 1.0
				alive++
			}
			e.sample("tstorm_worker_up", slotLabels(&workers[i]), v)
		}
		e.family("tstorm_worker_process_restarts_total", "Worker-process respawns performed by the supervisor.", "counter")
		for i := range workers {
			e.sample("tstorm_worker_process_restarts_total", slotLabels(&workers[i]), float64(workers[i].Restarts))
		}
		e.family("tstorm_worker_dropped_tuples_total", "Tuples in data-plane frames the worker could not get to a peer (no route, dial refused, shed after a write error or deadline).", "counter")
		for i := range workers {
			e.sample("tstorm_worker_dropped_tuples_total", slotLabels(&workers[i]), float64(workers[i].DroppedTuples))
		}
		e.family("tstorm_workers_alive", "Live worker processes in the fleet.", "gauge")
		e.sample("tstorm_workers_alive", nil, float64(alive))
	}

	if m := s.cfg.Monitor; m != nil {
		e.family("tstorm_monitor_samples_total", "Completed monitor sampling rounds.", "counter")
		e.sample("tstorm_monitor_samples_total", nil, float64(m.Samples()))
		e.family("tstorm_monitor_last_sample_age_seconds", "Seconds since the last completed sampling round.", "gauge")
		e.sample("tstorm_monitor_last_sample_age_seconds", nil, m.LastSampleAge().Seconds())
		e.family("tstorm_monitor_sampling_round_duration_seconds", "Duration of the last sampling round.", "gauge")
		e.sample("tstorm_monitor_sampling_round_duration_seconds", nil, m.LastRoundDuration().Seconds())
	}

	if rec := s.cfg.Trace; rec != nil {
		e.family("tstorm_trace_dropped_total", "Trace events evicted from the ring buffer.", "counter")
		e.sample("tstorm_trace_dropped_total", nil, float64(rec.Dropped()))
	}

	s.traceFamilies(&e, t)

	if h := s.cfg.History; h != nil {
		e.family("tstorm_scheduler_rounds_total", "Completed scheduling decision rounds.", "counter")
		e.sample("tstorm_scheduler_rounds_total", nil, float64(h.Rounds()))
		e.family("tstorm_scheduler_moves_total", "Executors moved by applied scheduling rounds.", "counter")
		e.sample("tstorm_scheduler_moves_total", nil, float64(h.Moves()))
		e.family("tstorm_scheduler_relaxations_total", "Placements that needed constraint relaxation.", "counter")
		e.sample("tstorm_scheduler_relaxations_total", nil, float64(h.Relaxations()))
		e.family("tstorm_scheduler_decision_duration_ms", "Wall-clock duration of each scheduling decision round.", "histogram")
		e.histogram("tstorm_scheduler_decision_duration_ms", nil, h.DurationHistogram())
		// The reconciliation gauge: predicted inter-node rate of the live
		// schedule over the rate observed on the engine's counters since
		// the last round. No sample until a baseline window has elapsed.
		e.family("tstorm_scheduler_predicted_vs_observed_ratio", "Predicted inter-node traffic rate over the rate observed since the last scheduling round (1.0 = the cost model matched the wire).", "gauge")
		if ratio, ok := h.Reconcile(s.totals().InterNodeSent, time.Now()); ok {
			e.sample("tstorm_scheduler_predicted_vs_observed_ratio", nil, ratio)
		}
	}

	// Health families come last and only when a health engine is wired:
	// a health-off scrape is byte-identical to earlier releases, and a
	// health-on scrape is that same document plus this trailing block.
	if hl := s.cfg.Health; hl != nil {
		st := hl.Status(time.Now())
		e.family("tstorm_health_level", "Worst rule level: 0 ok, 1 degraded, 2 critical.", "gauge")
		e.sample("tstorm_health_level", nil, levelValue(st.Overall))
		e.family("tstorm_health_rule_level", "Per-rule SLO level: 0 ok, 1 degraded, 2 critical.", "gauge")
		for i := range st.Rules {
			e.sample("tstorm_health_rule_level", []label{{"rule", st.Rules[i].Name}}, levelValue(st.Rules[i].Level))
		}
		e.family("tstorm_health_evals_total", "Completed health evaluation passes.", "counter")
		e.sample("tstorm_health_evals_total", nil, float64(st.Evals))
		e.family("tstorm_health_transitions_total", "Rule level transitions since start.", "counter")
		e.sample("tstorm_health_transitions_total", nil, float64(st.Transitions))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, e.b.String())
}

// placementDoc is the /debug/placement response body.
type placementDoc struct {
	// Applies and Migrations are lifetime re-assignment counters; a
	// scraper can detect "placement changed since last poll" cheaply.
	Applies    int64                 `json:"applies"`
	Migrations int64                 `json:"migrations"`
	Placements []live.PlacementEntry `json:"placements"`
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	t := s.totals()
	placements := s.placement()
	// The engine has no topology-removal API, so executors of a topology
	// the monitor was told to Forget stay in the route snapshot; keep the
	// telemetry view consistent with the rest of the stack by filtering
	// them here.
	if m := s.cfg.Monitor; m != nil {
		kept := make([]live.PlacementEntry, 0, len(placements))
		for _, p := range placements {
			if !m.Forgotten(p.Executor.Topology) {
				kept = append(kept, p)
			}
		}
		placements = kept
	}
	doc := placementDoc{
		Applies:    t.Applies,
		Migrations: t.Migrations,
		Placements: placements,
	}
	writeJSON(w, doc)
}

// traceEventDoc is one /debug/trace event. Wall-clock events carry Time;
// simulated events carry SimSeconds.
type traceEventDoc struct {
	Time       string   `json:"time,omitempty"`
	SimSeconds *float64 `json:"sim_seconds,omitempty"`
	Kind       string   `json:"kind"`
	Topology   string   `json:"topology,omitempty"`
	Where      string   `json:"where,omitempty"`
	Detail     string   `json:"detail,omitempty"`
}

// handleTrace returns the most recent ring-buffer events, oldest first.
// ?n= lowers the event count; ?format=text returns the rendered one-line
// timeline instead of JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Trace
	if rec == nil {
		http.Error(w, "tracing not enabled", http.StatusNotFound)
		return
	}
	events := rec.Events()
	limit, ok := requestLimit(w, r, s.cfg.TraceLimit)
	if !ok {
		return
	}
	if len(events) > limit {
		events = events[len(events)-limit:]
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, ev := range events {
			fmt.Fprintln(w, ev.String())
		}
		return
	}
	docs := make([]traceEventDoc, 0, len(events))
	for _, ev := range events {
		d := traceEventDoc{
			Kind:     string(ev.Kind),
			Topology: ev.Topology,
			Where:    ev.Where,
			Detail:   ev.Detail,
		}
		if !ev.Wall.IsZero() {
			d.Time = ev.Wall.Format(time.RFC3339Nano)
		} else {
			secs := ev.At.Seconds()
			d.SimSeconds = &secs
		}
		docs = append(docs, d)
	}
	writeJSON(w, docs)
}

// badRequest answers a malformed query parameter with a 400 and a JSON
// {"error": ...} body — the uniform contract across every /debug
// endpoint, so scrapers can parse rejections the same way they parse
// successes.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck // best-effort over HTTP
		"error": fmt.Sprintf(format, args...),
	})
}

// requestLimit parses the ?n= query parameter against a default cap:
// absent keeps the default, a larger value clamps to it, and anything
// non-numeric or non-positive is a 400 (ok=false, response written).
func requestLimit(w http.ResponseWriter, r *http.Request, def int) (limit int, ok bool) {
	limit = def
	q := r.URL.Query().Get("n")
	if q == "" {
		return limit, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n <= 0 {
		badRequest(w, "invalid n=%q: want a positive integer", q)
		return 0, false
	}
	if n < limit {
		limit = n
	}
	return limit, true
}

// requestWindow parses the ?window= query parameter: absent keeps def,
// and anything that is not a positive Go duration is a 400 (ok=false,
// response written).
func requestWindow(w http.ResponseWriter, r *http.Request, def time.Duration) (window time.Duration, ok bool) {
	q := r.URL.Query().Get("window")
	if q == "" {
		return def, true
	}
	d, err := time.ParseDuration(q)
	if err != nil || d <= 0 {
		badRequest(w, "invalid window=%q: want a positive Go duration like 30s", q)
		return 0, false
	}
	return d, true
}

// schedulerDoc is the /debug/scheduler response body.
type schedulerDoc struct {
	// Rounds, Moves, and Relaxations are lifetime counters (they survive
	// ring eviction).
	Rounds      int64 `json:"rounds"`
	Moves       int64 `json:"moves"`
	Relaxations int64 `json:"relaxations"`
	// PredictedVsObservedRatio reconciles the live schedule's predicted
	// inter-node traffic rate against the engine's observed counters
	// (omitted until a baseline window has elapsed).
	PredictedVsObservedRatio *float64 `json:"predicted_vs_observed_ratio,omitempty"`
	// Reports are the retained decision reports, oldest first.
	Reports []decision.Report `json:"reports"`
}

// handleScheduler returns the decision-report ring. ?n= lowers the report
// count; ?format=text renders a one-line-per-round timeline instead.
func (s *Server) handleScheduler(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.History
	if h == nil {
		http.Error(w, "decision history not enabled", http.StatusNotFound)
		return
	}
	limit, ok := requestLimit(w, r, h.Capacity())
	if !ok {
		return
	}
	reports := h.Reports()
	if len(reports) > limit {
		reports = reports[len(reports)-limit:]
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rep := range reports {
			fmt.Fprintln(w, decisionLine(rep))
		}
		return
	}
	doc := schedulerDoc{
		Rounds:      h.Rounds(),
		Moves:       h.Moves(),
		Relaxations: h.Relaxations(),
		Reports:     reports,
	}
	if ratio, ok := h.Reconcile(s.totals().InterNodeSent, time.Now()); ok {
		doc.PredictedVsObservedRatio = &ratio
	}
	writeJSON(w, doc)
}

// workersDoc is the /debug/workers response body.
type workersDoc struct {
	Alive   int            `json:"alive"`
	Workers []WorkerStatus `json:"workers"`
}

// handleWorkers returns the distributed fleet's process-liveness table
// (404 on engine-backed servers, which have no worker processes).
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Workers == nil {
		http.Error(w, "no worker fleet (in-process backend)", http.StatusNotFound)
		return
	}
	doc := workersDoc{Workers: s.cfg.Workers()}
	if doc.Workers == nil {
		doc.Workers = []WorkerStatus{}
	}
	for i := range doc.Workers {
		if doc.Workers[i].Alive {
			doc.Alive++
		}
	}
	writeJSON(w, doc)
}

// decisionLine renders one report as a timeline line.
func decisionLine(rep decision.Report) string {
	applied := "skipped"
	if rep.Applied {
		applied = "applied"
	}
	before := "n/a"
	if rep.PredictedBefore >= 0 {
		before = fmt.Sprintf("%.0f", rep.PredictedBefore)
	}
	return fmt.Sprintf("round %d %s: algo=%s execs=%d nodes=%d/%d inter-node %s -> %.0f tuples/s moved=%d relaxed=%d in %.2fms [%s]",
		rep.Round, rep.Start.Format(time.RFC3339Nano), rep.Algorithm,
		rep.Executors, rep.NodesUsed, rep.Nodes,
		before, rep.PredictedAfter, rep.Moved, rep.Relaxations,
		float64(rep.Duration)/float64(time.Millisecond), applied)
}

// trafficDoc is the /debug/traffic response body.
type trafficDoc struct {
	// Current is the load database's traffic matrix at request time
	// (omitted without a DB). Save this document and feed it to
	// `tstorm-sched explain -snapshot` to replay the decision offline.
	Current *decision.TrafficSnapshot `json:"current,omitempty"`
	// History lists the snapshots recorded at each scheduling round,
	// oldest first.
	History []decision.TrafficSnapshot `json:"history"`
}

// handleTraffic returns the current and historical traffic matrices.
// ?n= lowers the history length.
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.History
	if h == nil && s.cfg.DB == nil {
		http.Error(w, "decision history not enabled", http.StatusNotFound)
		return
	}
	def := decision.DefaultCapacity
	if h != nil {
		def = h.Capacity()
	}
	limit, ok := requestLimit(w, r, def)
	if !ok {
		return
	}
	doc := trafficDoc{History: []decision.TrafficSnapshot{}}
	if s.cfg.DB != nil {
		cur := decision.SnapshotOf(time.Now(), s.cfg.DB.Snapshot())
		doc.Current = &cur
	}
	if h != nil {
		doc.History = h.TrafficHistory()
		if len(doc.History) > limit {
			doc.History = doc.History[len(doc.History)-limit:]
		}
	}
	writeJSON(w, doc)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
}
