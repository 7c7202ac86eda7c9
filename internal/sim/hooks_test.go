package sim

import "time"

// Test-only hooks: no program counts pending events or schedules a
// callback on a lane, but the differential tests against the reference
// queue drive both engines through them.

// Pending reports how many events are scheduled and not yet fired, on the
// heap and on every lane (including cancelled events that have not been
// drained).
func (e *Engine) Pending() int {
	n := len(e.queue)
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}

// After is Engine.After on the lane: fn runs d from now unless the
// returned Timer is cancelled first.
func (l *Lane) After(d time.Duration, fn func()) *Timer {
	ev := &event{fn: fn}
	l.AtEvent(l.e.now.Add(max(d, 0)), ev)
	return &Timer{ev: ev}
}
