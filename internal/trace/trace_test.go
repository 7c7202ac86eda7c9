package trace

import (
	"strings"
	"testing"
	"time"

	"tstorm/internal/sim"
)

func at(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }

func TestEmitAndEvents(t *testing.T) {
	r := NewRecorder(10)
	r.Emit(Event{At: at(1), Kind: WorkerStarted, Topology: "wc", Where: "node01:6700"})
	r.Emit(Event{At: at(2), Kind: WorkerKilled, Topology: "wc", Where: "node01:6700"})
	evs := r.Events()
	if len(evs) != 2 || r.filled != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != WorkerStarted || evs[1].Kind != WorkerKilled {
		t.Fatalf("order wrong: %v", evs)
	}
	if r.Dropped() != 0 {
		t.Fatal("dropped on non-full ring")
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{At: at(float64(i)), Kind: MessageDropped})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].At != at(2) || evs[2].At != at(4) {
		t.Fatalf("kept wrong window: %v", evs)
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

func TestFilter(t *testing.T) {
	r := NewRecorder(10)
	r.Emit(Event{Kind: WorkerStarted})
	r.Emit(Event{Kind: OverloadDetected})
	r.Emit(Event{Kind: WorkerStarted})
	if got := len(r.Filter(WorkerStarted)); got != 2 {
		t.Fatalf("Filter = %d, want 2", got)
	}
	if got := len(r.Filter(NodeFailed)); got != 0 {
		t.Fatalf("Filter(absent) = %d, want 0", got)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{At: at(12.3), Kind: OverloadDetected, Topology: "wc", Where: "node03", Detail: "7200 MHz"}
	s := ev.String()
	for _, want := range []string{"t=12.3s", "overload-detected", "wc", "@node03", "7200 MHz"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	bare := Event{At: at(1), Kind: WorkerStarted}.String()
	if strings.Contains(bare, "@") || strings.Contains(bare, ":  ") {
		t.Errorf("bare event renders extras: %q", bare)
	}
}

func TestTinyCapacityClamped(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(Event{Kind: WorkerStarted})
	if r.filled != 1 {
		t.Fatal("capacity clamp failed")
	}
}
