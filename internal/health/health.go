// Package health turns retained metric series (internal/tsdb) into SLO
// verdicts. Rules are declarative: a probe reads the series, a judge
// maps the value (optionally against an EWMA baseline of healthy
// history) to ok/degraded/critical, and streak-based hysteresis keeps a
// single bad sample from flapping the state. Level transitions are
// emitted as wall-clock trace events so /debug/trace tells the fault
// story alongside the scheduler's.
package health

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/trace"
)

// Level orders rule severities.
type Level int

const (
	OK Level = iota
	Degraded
	Critical
)

// String names the level for exposition.
func (l Level) String() string {
	switch l {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	default:
		return "critical"
	}
}

// Judge maps a probed value (and the rule's EWMA baseline, NaN when the
// rule keeps none) to a severity.
type Judge func(v, baseline float64) Level

// Above flags values at or above warn as degraded and at or above crit
// as critical.
func Above(warn, crit float64) Judge {
	return func(v, _ float64) Level {
		switch {
		case v >= crit:
			return Critical
		case v >= warn:
			return Degraded
		default:
			return OK
		}
	}
}

// BelowFraction compares the value to fractions of the EWMA baseline:
// under warn×baseline is degraded, under crit×baseline is critical.
// Requires Spec.Baseline.
func BelowFraction(warn, crit float64) Judge {
	return func(v, baseline float64) Level {
		if math.IsNaN(baseline) || baseline <= 0 {
			return OK
		}
		switch {
		case v < crit*baseline:
			return Critical
		case v < warn*baseline:
			return Degraded
		default:
			return OK
		}
	}
}

// OutsideBand flags values leaving [warnLo, warnHi] as degraded and
// leaving [critLo, critHi] as critical.
func OutsideBand(warnLo, warnHi, critLo, critHi float64) Judge {
	return func(v, _ float64) Level {
		switch {
		case v < critLo || v > critHi:
			return Critical
		case v < warnLo || v > warnHi:
			return Degraded
		default:
			return OK
		}
	}
}

// Spec declares one SLO rule.
type Spec struct {
	// Name identifies the rule ("throughput-floor").
	Name string
	// Help is a one-line human description of what the rule watches.
	Help string
	// Unit labels the probed value ("tuples/s", "ms", "fraction").
	Unit string
	// Probe reads the rule's current measurement. ok=false means no data
	// this tick — streaks freeze rather than count missing data as good
	// or bad.
	Probe func(now time.Time) (v float64, ok bool)
	// Judge maps the probe to a severity.
	Judge Judge
	// Baseline maintains an EWMA over values probed while the rule judged
	// OK, passed to Judge (NaN otherwise). Judging starts only after
	// Warmup samples seeded the EWMA.
	Baseline bool
	// Alpha is the EWMA smoothing factor (default 0.3).
	Alpha float64
	// Warmup is how many samples seed the baseline before judging
	// (default 3; baseline rules only).
	Warmup int
	// RaiseAfter is how many consecutive bad samples raise the level
	// (default 2 — a single bad sample never transitions).
	RaiseAfter int
	// ClearAfter is how many consecutive good samples return the rule to
	// OK (default 3).
	ClearAfter int
}

func (s *Spec) fillDefaults() {
	if s.Alpha <= 0 || s.Alpha > 1 {
		s.Alpha = 0.3
	}
	if s.Warmup <= 0 {
		s.Warmup = 3
	}
	if s.RaiseAfter <= 0 {
		s.RaiseAfter = 2
	}
	if s.ClearAfter <= 0 {
		s.ClearAfter = 3
	}
}

// ruleState is one rule's evaluation state, guarded by Engine.mu.
type ruleState struct {
	spec Spec

	level      Level
	pending    Level // worst judgement within the current bad streak
	badStreak  int
	goodStreak int

	seen      int
	baseline  float64
	baseValid bool

	value    float64
	hasValue bool

	since       time.Time // when the current level began
	transitions int64
}

// Engine evaluates a rule set each sampler tick.
type Engine struct {
	mu    sync.Mutex
	rules []*ruleState
	rec   *trace.Recorder

	evals       atomic.Int64
	transitions atomic.Int64
}

// New returns an engine over the given rules. Transitions are emitted to
// rec when non-nil.
func New(rules []Spec, rec *trace.Recorder) *Engine {
	e := &Engine{rec: rec}
	for _, r := range rules {
		r.fillDefaults()
		e.rules = append(e.rules, &ruleState{spec: r})
	}
	return e
}

// Evaluate runs every rule's probe and judge once, stamped now. Call it
// from the sampler tick, after the collector has appended fresh samples.
func (e *Engine) Evaluate(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evals.Add(1)
	for _, st := range e.rules {
		e.evaluate(st, now)
	}
}

func (e *Engine) evaluate(st *ruleState, now time.Time) {
	spec := &st.spec
	v, ok := spec.Probe(now)
	st.value, st.hasValue = v, ok
	if !ok {
		return
	}
	if st.since.IsZero() {
		st.since = now
	}
	st.seen++

	baseline := math.NaN()
	if spec.Baseline {
		if !st.baseValid {
			if st.seen == 1 {
				st.baseline = v
			} else {
				st.baseline = spec.Alpha*v + (1-spec.Alpha)*st.baseline
			}
			if st.seen >= spec.Warmup {
				st.baseValid = true
			}
			return // still warming up: no judgement yet
		}
		baseline = st.baseline
	}

	target := spec.Judge(v, baseline)
	if target == OK && spec.Baseline {
		// Only healthy samples move the baseline, so a sustained fault
		// cannot drag its own yardstick down and mask itself.
		st.baseline = spec.Alpha*v + (1-spec.Alpha)*st.baseline
	}

	if target > OK {
		st.goodStreak = 0
		st.badStreak++
		if target > st.pending {
			st.pending = target
		}
		if st.badStreak >= spec.RaiseAfter && st.pending > st.level {
			e.transition(st, st.pending, now)
		}
	} else {
		st.badStreak = 0
		st.pending = OK
		st.goodStreak++
		if st.level > OK && st.goodStreak >= spec.ClearAfter {
			e.transition(st, OK, now)
		}
	}
}

func (e *Engine) transition(st *ruleState, to Level, now time.Time) {
	from := st.level
	st.level = to
	st.since = now
	st.transitions++
	e.transitions.Add(1)
	if e.rec == nil {
		return
	}
	kind := trace.HealthRecovered
	switch to {
	case Degraded:
		kind = trace.HealthDegraded
	case Critical:
		kind = trace.HealthCritical
	}
	detail := fmt.Sprintf("%s→%s value=%.4g%s", from, to, st.value, unitSuffix(st.spec.Unit))
	if st.spec.Baseline && st.baseValid {
		detail += fmt.Sprintf(" baseline=%.4g", st.baseline)
	}
	e.rec.Emit(trace.Event{Wall: now, Kind: kind, Where: st.spec.Name, Detail: detail})
}

func unitSuffix(unit string) string {
	if unit == "" {
		return ""
	}
	return " " + unit
}

// RuleStatus is one rule's current verdict, for /debug/health.
type RuleStatus struct {
	Name        string  `json:"rule"`
	Help        string  `json:"help,omitempty"`
	Level       string  `json:"level"`
	Value       float64 `json:"value"`
	Unit        string  `json:"unit,omitempty"`
	HasValue    bool    `json:"has_value"`
	Baseline    float64 `json:"baseline,omitempty"`
	HasBaseline bool    `json:"has_baseline"`
	// Since is when the rule entered its current level (zero before the
	// rule ever produced data).
	Since       time.Time `json:"since,omitempty"`
	Transitions int64     `json:"transitions"`
}

// Status is the engine's full verdict snapshot.
type Status struct {
	Overall     string       `json:"overall"`
	At          time.Time    `json:"at"`
	Evals       int64        `json:"evals"`
	Transitions int64        `json:"transitions"`
	Rules       []RuleStatus `json:"rules"`
}

// Status snapshots every rule, stamped now.
func (e *Engine) Status(now time.Time) Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Status{
		At:          now,
		Evals:       e.evals.Load(),
		Transitions: e.transitions.Load(),
	}
	worst := OK
	for _, st := range e.rules {
		if st.level > worst {
			worst = st.level
		}
		rs := RuleStatus{
			Name:        st.spec.Name,
			Help:        st.spec.Help,
			Level:       st.level.String(),
			Value:       st.value,
			Unit:        st.spec.Unit,
			HasValue:    st.hasValue,
			HasBaseline: st.baseValid,
			Since:       st.since,
			Transitions: st.transitions,
		}
		if st.baseValid {
			rs.Baseline = st.baseline
		}
		out.Rules = append(out.Rules, rs)
	}
	out.Overall = worst.String()
	return out
}
