// Package trace records structured runtime events — worker lifecycle,
// assignment publications, overload detections, failures, message drops —
// so experiments and operators can reconstruct *why* the cluster behaved
// as it did. The recorder is a bounded ring buffer; tracing is off unless
// a recorder is attached.
package trace

import (
	"fmt"
	"sync"
	"time"

	"tstorm/internal/sim"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the engine and the scheduling layer.
const (
	WorkerStarted       Kind = "worker-started"
	WorkerStopping      Kind = "worker-stopping"
	WorkerKilled        Kind = "worker-killed"
	AssignmentPublished Kind = "assignment-published"
	MessageDropped      Kind = "message-dropped"
	OverloadDetected    Kind = "overload-detected"
	NodeFailed          Kind = "node-failed"
	NodeRecovered       Kind = "node-recovered"
	RescuePublished     Kind = "rescue-published"
	ScheduleGenerated   Kind = "schedule-generated"
	AlgorithmSwapped    Kind = "algorithm-swapped"
)

// Event kinds emitted by the live (wall-clock) runtime. They carry Wall
// instead of At.
const (
	ReassignApplied  Kind = "reassign-applied"
	SpoutsHalted     Kind = "spouts-halted"
	SpoutsResumed    Kind = "spouts-resumed"
	QueuesDrained    Kind = "queues-drained"
	ExecutorMigrated Kind = "executor-migrated"
	MonitorSampled   Kind = "monitor-sampled"
	WorkerCrashed    Kind = "worker-crashed"
	WorkerRestarted  Kind = "worker-restarted"
	// WorkerRejoined marks a respawned worker process that holds its
	// executors again with every peer routing to it; the spouts were then
	// told to replay their outstanding roots.
	WorkerRejoined Kind = "worker-rejoined"
	TupleReplayed  Kind = "tuple-replayed"
)

// Event kinds emitted by the SLO health engine (internal/health). Where
// names the rule; Detail carries the from→to levels and the probed value.
const (
	HealthDegraded  Kind = "health-degraded"
	HealthCritical  Kind = "health-critical"
	HealthRecovered Kind = "health-recovered"
)

// Event is one recorded occurrence. Simulated components stamp At; the
// live runtime stamps Wall. Exactly one of the two is meaningful — Wall's
// zero value marks a simulated event.
type Event struct {
	At sim.Time
	// Wall is the wall-clock instant, set by the live runtime.
	Wall     time.Time
	Kind     Kind
	Topology string
	// Where names the node/slot involved, when applicable.
	Where string
	// Detail is a short human-readable elaboration.
	Detail string
}

// WallEvent builds a wall-clock event stamped now.
func WallEvent(kind Kind, topo, where, detail string) Event {
	return Event{Wall: time.Now(), Kind: kind, Topology: topo, Where: where, Detail: detail}
}

// String renders "t=123.4s kind topo@where: detail" for simulated events
// and "t=15:04:05.000 kind topo@where: detail" for wall-clock ones.
func (e Event) String() string {
	var s string
	if !e.Wall.IsZero() {
		s = fmt.Sprintf("t=%s %s", e.Wall.Format("15:04:05.000"), e.Kind)
	} else {
		s = fmt.Sprintf("t=%.1fs %s", e.At.Seconds(), e.Kind)
	}
	if e.Topology != "" {
		s += " " + e.Topology
	}
	if e.Where != "" {
		s += "@" + e.Where
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Recorder is a bounded, thread-safe event sink.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	filled  int
	dropped int64
}

// NewRecorder returns a recorder keeping the most recent capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Emit records an event. When the ring is full
// the oldest event is overwritten and counted as dropped.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	if r.filled == len(r.ring) {
		r.dropped++
	} else {
		r.filled++
	}
	r.ring[r.next] = ev
	r.next = (r.next + 1) % len(r.ring)
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.filled)
	start := (r.next - r.filled + len(r.ring)) % len(r.ring)
	for i := 0; i < r.filled; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Filter returns the retained events of one kind, oldest first.
func (r *Recorder) Filter(kind Kind) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// Dropped reports how many events were evicted from the ring.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
