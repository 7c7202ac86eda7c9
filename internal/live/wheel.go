package live

import (
	"time"

	"tstorm/internal/tuple"
)

// timeoutWheel is a coarse-tick hashed timing wheel tracking when each
// outstanding root times out. Unlike the simulation — which affords one
// exact sim.Timer per root — the live runtime amortizes timeouts into
// buckets a fixed tick apart: registering, cancelling and advancing are
// all O(1) amortized, and a root fires at most one tick late, which is
// noise against a 30 s (or even a 50 ms test) timeout.
//
// A wheel belongs to one spout executor and is driven entirely by that
// spout's goroutine (register on emit, cancel on ack, advance once per
// emit cycle), so it needs no locks.
type timeoutWheel struct {
	tick    time.Duration
	buckets []map[tuple.ID]struct{}
	slot    map[tuple.ID]int // root → bucket holding it
	pos     int              // bucket whose deadline is next
	last    time.Time        // wall time pos last advanced
}

// wheelTicks is how many ticks one timeout spans: the firing error is
// timeout/wheelTicks (floored at wheelMinTick).
const (
	wheelTicks    = 32
	wheelMinTick  = time.Millisecond
	wheelCapacity = wheelTicks + 2 // timeout span + insert slack + in-progress tick
)

// newTimeoutWheel sizes a wheel for the given timeout, starting at now.
func newTimeoutWheel(timeout time.Duration, now time.Time) *timeoutWheel {
	tick := timeout / wheelTicks
	if tick < wheelMinTick {
		tick = wheelMinTick
	}
	w := &timeoutWheel{
		tick:    tick,
		buckets: make([]map[tuple.ID]struct{}, wheelCapacity),
		slot:    make(map[tuple.ID]int),
		last:    now,
	}
	for i := range w.buckets {
		w.buckets[i] = make(map[tuple.ID]struct{})
	}
	return w
}

// add registers a root due after the given timeout. A root already
// registered is moved to the new deadline (replays re-arm the clock).
// Deadlines are measured against the wheel's own clock (last), which may
// lag now if the spout stalled; measuring against it — and growing the
// ring when the lag would not fit — guarantees a root never fires early.
func (w *timeoutWheel) add(root tuple.ID, timeout time.Duration, now time.Time) {
	if b, ok := w.slot[root]; ok {
		delete(w.buckets[b], root)
	}
	// +1 rounds up so a root never fires before its deadline.
	ticks := int((now.Sub(w.last)+timeout)/w.tick) + 1
	if ticks >= len(w.buckets) {
		w.grow(ticks + 1)
	}
	b := (w.pos + ticks) % len(w.buckets)
	w.buckets[b][root] = struct{}{}
	w.slot[root] = b
}

// grow rebuilds the ring with at least minLen buckets, preserving every
// root's remaining offset from pos. Rare: only a spout stalled longer than
// the timeout span needs it.
func (w *timeoutWheel) grow(minLen int) {
	old := w.buckets
	oldPos := w.pos
	buckets := make([]map[tuple.ID]struct{}, minLen)
	for i := range buckets {
		buckets[i] = make(map[tuple.ID]struct{})
	}
	for root, b := range w.slot {
		off := (b - oldPos + len(old)) % len(old)
		buckets[off][root] = struct{}{}
		w.slot[root] = off
	}
	w.buckets = buckets
	w.pos = 0
}

// cancel removes a root (acked before its deadline); it reports whether
// the root was present.
func (w *timeoutWheel) cancel(root tuple.ID) bool {
	b, ok := w.slot[root]
	if !ok {
		return false
	}
	delete(w.buckets[b], root)
	delete(w.slot, root)
	return true
}

// expire advances the wheel to now and returns every root whose deadline
// passed. The append-to-nil pattern keeps the common empty case
// allocation-free.
func (w *timeoutWheel) expire(now time.Time) []tuple.ID {
	var due []tuple.ID
	for now.Sub(w.last) >= w.tick {
		w.last = w.last.Add(w.tick)
		w.pos = (w.pos + 1) % len(w.buckets)
		b := w.buckets[w.pos]
		for root := range b {
			due = append(due, root)
			delete(w.slot, root)
		}
		if len(b) > 0 {
			w.buckets[w.pos] = make(map[tuple.ID]struct{})
		}
	}
	return due
}
