package live

import (
	"testing"
	"time"

	"tstorm/internal/tuple"
)

// wheelBase is an arbitrary fixed instant so wheel tests are deterministic.
var wheelBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestWheelFiresLateNeverEarly registers one root and sweeps expire over
// the whole timeout window: the root must stay registered until its full
// timeout elapsed and fire within the wheel's two-tick slack after it.
func TestWheelFiresLateNeverEarly(t *testing.T) {
	const timeout = 320 * time.Millisecond
	w := newTimeoutWheel(timeout, wheelBase)
	if w.tick != 10*time.Millisecond {
		t.Fatalf("tick = %v, want 10ms", w.tick)
	}
	w.add(1, timeout, wheelBase)
	if len(w.slot) != 1 {
		t.Fatalf("pending = %d, want 1", len(w.slot))
	}
	fired := time.Duration(-1)
	for d := time.Duration(0); d <= timeout+4*w.tick; d += w.tick {
		if due := w.expire(wheelBase.Add(d)); len(due) > 0 {
			if due[0] != 1 {
				t.Fatalf("expired root %d, want 1", due[0])
			}
			fired = d
			break
		}
	}
	if fired < timeout {
		t.Fatalf("root fired at +%v, before its %v timeout", fired, timeout)
	}
	if fired > timeout+2*w.tick {
		t.Fatalf("root fired at +%v, more than two ticks past %v", fired, timeout)
	}
	if len(w.slot) != 0 {
		t.Fatalf("pending = %d after fire, want 0", len(w.slot))
	}
}

// TestWheelCancel acks a root before its deadline: it must never fire, and
// a second cancel reports absence.
func TestWheelCancel(t *testing.T) {
	const timeout = 100 * time.Millisecond
	w := newTimeoutWheel(timeout, wheelBase)
	w.add(7, timeout, wheelBase)
	if !w.cancel(7) {
		t.Fatal("cancel of registered root reported absent")
	}
	if w.cancel(7) {
		t.Fatal("second cancel reported present")
	}
	if due := w.expire(wheelBase.Add(10 * timeout)); len(due) != 0 {
		t.Fatalf("cancelled root expired: %v", due)
	}
}

// TestWheelReAddRearms re-registers a root mid-flight (a replay) and checks
// it fires once, at the new deadline, not the old one.
func TestWheelReAddRearms(t *testing.T) {
	const timeout = 320 * time.Millisecond
	w := newTimeoutWheel(timeout, wheelBase)
	w.add(3, timeout, wheelBase)

	// Advance half a timeout, then re-arm.
	half := wheelBase.Add(timeout / 2)
	if due := w.expire(half); len(due) != 0 {
		t.Fatalf("root expired early: %v", due)
	}
	w.add(3, timeout, half)
	if len(w.slot) != 1 {
		t.Fatalf("pending = %d after re-add, want 1", len(w.slot))
	}

	// The old deadline passes without a fire...
	if due := w.expire(wheelBase.Add(timeout + 2*w.tick)); len(due) != 0 {
		t.Fatalf("root fired at the stale deadline: %v", due)
	}
	// ...and the re-armed one fires.
	due := w.expire(half.Add(timeout + 2*w.tick))
	if len(due) != 1 || due[0] != 3 {
		t.Fatalf("re-armed root did not fire: %v", due)
	}
}

// TestWheelGrowsOnStall stalls the wheel (no expire calls) far past its
// span, then registers a new root: the ring must grow so the root still
// waits its full timeout, and the stalled root fires exactly once.
func TestWheelGrowsOnStall(t *testing.T) {
	const timeout = 100 * time.Millisecond
	w := newTimeoutWheel(timeout, wheelBase)
	w.add(1, timeout, wheelBase)

	// Spout stalls ten timeouts; on wake it emits a fresh root before any
	// expire ran. Without growth this deadline would alias onto a near slot
	// and fire early.
	stall := wheelBase.Add(10 * timeout)
	w.add(2, timeout, stall)
	if len(w.buckets) <= wheelCapacity {
		t.Fatalf("ring did not grow: %d buckets", len(w.buckets))
	}

	// Catching up to the stall instant fires only the old root.
	due := w.expire(stall)
	if len(due) != 1 || due[0] != 1 {
		t.Fatalf("catch-up expired %v, want just root 1", due)
	}
	// The fresh root still waits its full timeout from the stall instant.
	if due := w.expire(stall.Add(timeout - w.tick)); len(due) != 0 {
		t.Fatalf("fresh root fired early after growth: %v", due)
	}
	due = w.expire(stall.Add(timeout + 2*w.tick))
	if len(due) != 1 || due[0] != 2 {
		t.Fatalf("fresh root did not fire after growth: %v", due)
	}
	if len(w.slot) != 0 {
		t.Fatalf("pending = %d, want 0", len(w.slot))
	}
}

// TestWheelManyRoots hammers the wheel with interleaved adds, cancels and
// expires and checks conservation: every root either cancelled or expired,
// exactly once.
func TestWheelManyRoots(t *testing.T) {
	const timeout = 64 * time.Millisecond
	w := newTimeoutWheel(timeout, wheelBase)
	expired := make(map[tuple.ID]int)
	cancelled := 0
	now := wheelBase
	const n = 500
	for i := 1; i <= n; i++ {
		w.add(tuple.ID(i), timeout, now)
		if i%3 == 0 {
			if w.cancel(tuple.ID(i)) {
				cancelled++
			}
		}
		now = now.Add(w.tick / 2)
		for _, r := range w.expire(now) {
			expired[r]++
		}
	}
	for _, r := range w.expire(now.Add(2 * timeout)) {
		expired[r]++
	}
	for r, c := range expired {
		if c != 1 {
			t.Fatalf("root %d expired %d times", r, c)
		}
	}
	if got := len(expired) + cancelled; got != n {
		t.Fatalf("accounted %d roots (%d expired + %d cancelled), want %d",
			got, len(expired), cancelled, n)
	}
	if len(w.slot) != 0 {
		t.Fatalf("pending = %d, want 0", len(w.slot))
	}
}
