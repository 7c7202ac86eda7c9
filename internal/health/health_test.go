package health

import (
	"testing"
	"time"

	"tstorm/internal/live"
	"tstorm/internal/metrics"
	"tstorm/internal/trace"
	"tstorm/internal/tsdb"
)

// scripted builds a rule whose probe replays the given values in order
// (sticking at the last one), with tight deterministic hysteresis.
func scripted(vals []float64, spec Spec) (Spec, func() int) {
	i := 0
	spec.Probe = func(time.Time) (float64, bool) {
		v := vals[min(i, len(vals)-1)]
		i++
		return v, true
	}
	return spec, func() int { return i }
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func level(t *testing.T, e *Engine, rule string) Level {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.rules {
		if st.spec.Name == rule {
			return st.level
		}
	}
	t.Fatalf("rule %q unknown", rule)
	return OK
}

// TestHysteresisNoFlapOnSingleBadSample is the satellite-required check:
// one bad sample in a healthy stream must not transition the rule, and
// one good sample in a bad stream must not clear it.
func TestHysteresisNoFlapOnSingleBadSample(t *testing.T) {
	vals := []float64{
		1, 1, 1, // healthy
		9, // one bad sample — must NOT degrade (RaiseAfter=2)
		1, 1,
		9, 9, // two consecutive bad — degrade now
		1,    // one good sample — must NOT clear (ClearAfter=3)
		9, 9, // bad again: good streak reset
		1, 1, 1, // three consecutive good — clear
	}
	spec, _ := scripted(vals, Spec{
		Name:       "flap",
		Judge:      Above(5, 100),
		RaiseAfter: 2,
		ClearAfter: 3,
	})
	rec := trace.NewRecorder(16)
	e := New([]Spec{spec}, rec)

	now := time.Unix(1000, 0)
	step := func() { e.Evaluate(now); now = now.Add(time.Second) }
	wants := []Level{
		OK, OK, OK,
		OK, // single bad sample absorbed
		OK, OK,
		OK, Degraded, // second consecutive bad raises
		Degraded, // single good sample absorbed
		Degraded, Degraded,
		Degraded, Degraded, OK, // third consecutive good clears
	}
	for i, want := range wants {
		step()
		if got := level(t, e, "flap"); got != want {
			t.Fatalf("after sample %d (v=%v): level %v, want %v", i, vals[min(i, len(vals)-1)], got, want)
		}
	}
	if e.transitions.Load() != 2 {
		t.Errorf("transitions = %d, want 2 (one raise, one clear)", e.transitions.Load())
	}
	deg := rec.Filter(trace.HealthDegraded)
	recov := rec.Filter(trace.HealthRecovered)
	if len(deg) != 1 || len(recov) != 1 {
		t.Fatalf("trace events: %d degraded, %d recovered, want 1/1", len(deg), len(recov))
	}
	if deg[0].Where != "flap" || deg[0].Wall.IsZero() {
		t.Errorf("degraded event malformed: %+v", deg[0])
	}
}

func TestEscalationToCritical(t *testing.T) {
	vals := []float64{1, 1, 9, 9, 500, 500}
	spec, _ := scripted(vals, Spec{Name: "esc", Judge: Above(5, 100), RaiseAfter: 2, ClearAfter: 3})
	rec := trace.NewRecorder(16)
	e := New([]Spec{spec}, rec)
	now := time.Unix(1000, 0)
	for i := 0; i < len(vals); i++ {
		e.Evaluate(now)
		now = now.Add(time.Second)
	}
	if got := level(t, e, "esc"); got != Critical {
		t.Fatalf("level %v, want critical", got)
	}
	if got := e.Status(now).Overall; got != Critical.String() {
		t.Errorf("overall %v, want critical", got)
	}
	if len(rec.Filter(trace.HealthCritical)) != 1 {
		t.Error("missing health-critical trace event")
	}
}

// TestBaselineJudgesRelativeDrop checks the EWMA path: a throughput-style
// rule learns its baseline during warmup, ignores judgement until warm,
// and fires when the value falls under the configured fraction. Faulty
// samples must not drag the baseline down.
func TestBaselineJudgesRelativeDrop(t *testing.T) {
	vals := []float64{1000, 1000, 1000, 1000, 100, 100, 100}
	spec, _ := scripted(vals, Spec{
		Name:       "tput",
		Judge:      BelowFraction(0.5, 0.1),
		Baseline:   true,
		Alpha:      0.5,
		Warmup:     3,
		RaiseAfter: 2,
		ClearAfter: 2,
	})
	e := New([]Spec{spec}, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ { // 3 warmup + 1 judged-healthy
		e.Evaluate(now)
		now = now.Add(time.Second)
	}
	if got := level(t, e, "tput"); got != OK {
		t.Fatalf("healthy stream judged %v", got)
	}
	st := e.Status(now)
	if !st.Rules[0].HasBaseline || st.Rules[0].Baseline != 1000 {
		t.Fatalf("baseline = %+v, want 1000", st.Rules[0])
	}
	for i := 0; i < 3; i++ { // collapse to 10% of baseline
		e.Evaluate(now)
		now = now.Add(time.Second)
	}
	if got := level(t, e, "tput"); got != Degraded {
		t.Fatalf("collapsed stream judged %v, want degraded", got)
	}
	// Bad samples did not move the yardstick.
	if st := e.Status(now); st.Rules[0].Baseline != 1000 {
		t.Errorf("baseline moved to %v during the fault", st.Rules[0].Baseline)
	}
}

// TestMissingDataFreezesState: a probe with no data neither raises nor
// clears — the rule keeps its level and streaks.
func TestMissingDataFreezesState(t *testing.T) {
	var val float64
	ok := true
	spec := Spec{
		Name:       "gap",
		Probe:      func(time.Time) (float64, bool) { return val, ok },
		Judge:      Above(5, 100),
		RaiseAfter: 2,
		ClearAfter: 2,
	}
	e := New([]Spec{spec}, nil)
	now := time.Unix(1000, 0)
	step := func() { e.Evaluate(now); now = now.Add(time.Second) }
	val = 9
	step()
	step() // raised
	if got := level(t, e, "gap"); got != Degraded {
		t.Fatalf("level %v, want degraded", got)
	}
	ok = false
	for i := 0; i < 10; i++ {
		step()
	}
	if got := level(t, e, "gap"); got != Degraded {
		t.Error("missing data cleared a degraded rule")
	}
	st := e.Status(now)
	if st.Rules[0].HasValue {
		t.Error("has_value true while probe reports no data")
	}
}

// TestStandardRulesAgainstSeededDB drives the real rule set from
// hand-written series: a healthy window, then an injected throughput
// collapse plus heartbeat silence, then recovery.
func TestStandardRulesAgainstSeededDB(t *testing.T) {
	db := tsdb.NewDB(128)
	sink := db.Register(SeriesSinkProcessed, tsdb.Counter)
	beat := db.Register(SeriesHeartbeatAge, tsdb.Gauge)
	e := New(StandardRules(db, RuleOptions{
		Window:   4 * time.Second,
		BeatWarn: time.Second,
		BeatCrit: 5 * time.Second,
	}), nil)

	now := time.Unix(2000, 0)
	total := 0.0
	tick := func(rate, age float64) {
		total += rate
		sink.Append(now.UnixNano(), total)
		beat.Append(now.UnixNano(), age)
		e.Evaluate(now)
		now = now.Add(time.Second)
	}
	for i := 0; i < 8; i++ {
		tick(1000, 0.1)
	}
	if st := e.Status(now); st.Overall != OK.String() {
		t.Fatalf("healthy fleet judged %v: %+v", st.Overall, st.Rules)
	}
	for i := 0; i < 6; i++ {
		tick(50, 2.5) // collapse + stale heartbeats
	}
	if got := level(t, e, "throughput-floor"); got != Degraded && got != Critical {
		t.Errorf("throughput-floor = %v during collapse", got)
	}
	if got := level(t, e, "worker-heartbeat-age"); got != Degraded {
		t.Errorf("worker-heartbeat-age = %v with 2.5s-old beats", got)
	}
	// Rules with no data never fired.
	if got := level(t, e, "queue-saturation"); got != OK {
		t.Errorf("queue-saturation = %v with no series", got)
	}
	for i := 0; i < 12; i++ {
		tick(1000, 0.1)
	}
	if e.Status(now).Overall != OK.String() {
		t.Errorf("fleet did not recover: %+v", e.Status(now).Rules)
	}
	if e.transitions.Load() < 4 {
		t.Errorf("transitions = %d, want >= 4 (two raises, two clears)", e.transitions.Load())
	}
}

// TestCollectorFeedsSeries wires a Collector to synthetic sources and
// checks each registered series receives the right values, and that
// source-less series are never registered.
func TestCollectorFeedsSeries(t *testing.T) {
	db := tsdb.NewDB(32)
	hist := metrics.NewLatencyHistogram()
	c := NewCollector(db, Sources{
		Totals: func() live.Totals {
			return live.Totals{SinkProcessed: 42, TuplesSent: 100, InterNodeSent: 25, PoolMisses: 7}
		},
		PendingRoots:      func() int64 { return 3 },
		CompletionLatency: func() *metrics.Histogram { return hist.Clone() },
	})
	now := time.Unix(3000, 0)
	c.Collect(now)

	checks := map[string]float64{
		SeriesSinkProcessed: 42,
		SeriesTuplesSent:    100,
		SeriesInterNodeSent: 25,
		SeriesPoolMisses:    7,
		SeriesInterNodeFrac: 0.25,
		SeriesPendingRoots:  3,
	}
	for name, want := range checks {
		s := db.Lookup(name)
		if s == nil {
			t.Errorf("series %s not registered", name)
			continue
		}
		if p, ok := s.Latest(); !ok || p.V != want {
			t.Errorf("%s = %v/%v, want %v", name, p.V, ok, want)
		}
	}
	for _, absent := range []string{SeriesQueueSaturation, SeriesRatio, SeriesWorkersAlive, SeriesHeartbeatAge} {
		if db.Lookup(absent) != nil {
			t.Errorf("series %s registered without a source", absent)
		}
	}
	// The empty completion window appended nothing; after samples arrive
	// the per-window p99 is diffed from consecutive cumulative snapshots.
	if retained(db.Lookup(SeriesCompletionP99)) != 0 {
		t.Error("completion p99 written from an empty window")
	}
	for i := 0; i < 100; i++ {
		hist.Add(10)
	}
	c.Collect(now.Add(time.Second))
	p, ok := db.Lookup(SeriesCompletionP99).Latest()
	if !ok || p.V < 5 || p.V > 20 {
		t.Errorf("completion p99 = %v/%v, want ~10ms", p.V, ok)
	}
	// Next window is empty again (cumulative unchanged): no new point.
	if before := retained(db.Lookup(SeriesCompletionP99)); before != 1 {
		t.Fatalf("p99 series len = %d, want 1", before)
	}
	c.Collect(now.Add(2 * time.Second))
	if retained(db.Lookup(SeriesCompletionP99)) != 1 {
		t.Error("empty completion window appended a point")
	}
}

// retained is how many samples a series holds.
func retained(s *tsdb.Series) int { return len(s.Last(s.Cap())) }
