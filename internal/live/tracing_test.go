package live

import (
	"testing"
	"time"

	"tstorm/internal/tracing"
	"tstorm/internal/tuple"
)

// TestSpanRingAsksForDrainByLoad: an executor asks for a drain every half
// ring of spans it records, so a drainer that comes only when asked — no
// period at all — never finds the ring more than half full and loses
// nothing, however fast the spans arrive.
func TestSpanRingAsksForDrainByLoad(t *testing.T) {
	eng := &Engine{spanReady: make(chan struct{}, 1)}
	le := &liveExec{eng: eng, spans: tracing.NewRing(spanRingCap)}
	const half = spanRingCap / 2
	now := time.Now()
	drained := 0
	for i := 1; i <= 10*spanRingCap; i++ {
		le.recordAck(tuple.ID(i), now)
		asked := false
		select {
		case <-eng.SpansReady():
			asked = true
		default:
		}
		if asked != (i%half == 0) {
			t.Fatalf("after %d spans: drain requested = %v, want one request per %d spans", i, asked, half)
		}
		if asked {
			got := le.spans.Drain(nil)
			if len(got) != half {
				t.Fatalf("drain at span %d returned %d spans, want %d", i, len(got), half)
			}
			drained += len(got)
		}
	}
	if d := le.spans.Dropped(); d != 0 || drained != 10*spanRingCap {
		t.Fatalf("drained %d of %d spans, %d dropped; want all and none", drained, 10*spanRingCap, d)
	}

	// Requests do not queue up behind a slow drainer, and never block the
	// executor: a full ring drops and counts, as before.
	for i := 0; i < 2*spanRingCap; i++ {
		le.recordAck(tuple.ID(i+1), now)
	}
	if d := le.spans.Dropped(); d != spanRingCap {
		t.Fatalf("%d spans dropped with no drainer, want %d", d, spanRingCap)
	}
	<-eng.SpansReady()
	select {
	case <-eng.SpansReady():
		t.Fatal("a second drain request was queued behind the first")
	default:
	}
}
