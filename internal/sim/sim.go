// Package sim provides the discrete-event simulation (DES) kernel that the
// rest of the system runs on: a virtual clock, a deterministic event queue,
// cancellable timers and tickers, and a seeded random source.
//
// Everything scheduled on one Engine executes on a single goroutine in
// strict (time, insertion-order) order, so simulation components need no
// internal locking and every run with the same seed is bit-reproducible.
//
// The queue is a 4-ary min-heap of {at, seq, event} values ordered by
// (at, seq). seq is unique, so the order is total and the pop sequence does
// not depend on the heap's shape or arity — only on what was scheduled.
package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Time is an instant of virtual time, expressed as the elapsed duration
// since the start of the simulation (Time(0)).
type Time time.Duration

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts t to the duration elapsed since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t like a time.Duration ("1m30s").
func (t Time) String() string { return time.Duration(t).String() }

// ErrStopped is returned by Run and RunUntil when the engine was stopped
// explicitly via Stop before the run completed.
var ErrStopped = errors.New("sim: engine stopped")

// Timer is a handle to a scheduled callback. The zero value is not a valid
// timer; timers are created by Engine.At and Engine.After.
type Timer struct {
	ev *event
}

// Cancel prevents the timer's callback from firing. It reports whether the
// cancellation was effective (false if the callback already ran or the
// timer was cancelled before).
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Ticker is a handle to a repeating callback created by Engine.Every.
type Ticker struct {
	stopped bool
	cur     *Timer
}

// Stop prevents any future firings of the ticker. Safe to call multiple
// times and from within the ticker's own callback.
func (tk *Ticker) Stop() {
	tk.stopped = true
	if tk.cur != nil {
		tk.cur.Cancel()
	}
}

// Event is something that happens at an instant of virtual time. The hot
// paths of a simulation schedule their own types through AtEvent — a
// pointer in an interface, so scheduling allocates nothing — instead of a
// closure through At. An event belongs to whoever scheduled it until Fire
// is called, exactly once; after that the engine holds no reference to it
// and the callee may reuse it, including rescheduling it from inside Fire.
type Event interface {
	Fire()
}

// event is the Event behind At/After/Every: a callback that its Timer can
// cancel. Cancellation is lazy — the entry stays queued and is skipped when
// it reaches the top.
type event struct {
	fn        func()
	cancelled bool
	fired     bool
}

func (ev *event) Fire() { ev.fn() }

// entry is one queued event. The heap orders entries by (at, seq); seq is
// the insertion count, so ties at one instant fire in scheduling order.
type entry struct {
	at  Time
	seq uint64
	ev  Event
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// arity is the heap's branching factor: a 4-ary heap is half as deep as a
// binary one and a node's children share a cache line or two, which is
// what pop pays for.
const arity = 4

// Engine is a discrete-event simulation executor. It is not safe for
// concurrent use; all interaction must happen from the goroutine that calls
// Run/RunUntil (typically from within event callbacks).
type Engine struct {
	now     Time
	queue   []entry // 4-ary min-heap by (at, seq)
	seq     uint64
	rng     *rand.Rand
	stopped bool
	running bool
	fired   uint64
}

// NewEngine returns an engine whose clock reads Time(0) and whose random
// source is deterministically seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsFired reports how many events have executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired
// (including cancelled events that have not been drained).
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at instant t. Scheduling in the past panics: that
// is always a logic error in a deterministic simulation.
func (e *Engine) At(t Time, fn func()) *Timer {
	ev := &event{fn: fn}
	e.AtEvent(t, ev)
	return &Timer{ev: ev}
}

// AtEvent schedules ev to fire at instant t. It is At without the closure,
// the Timer and their allocations: the event cannot be cancelled, and the
// caller must not touch it again until its Fire runs. Scheduling in the
// past panics.
func (e *Engine) AtEvent(t Time, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.queue = append(e.queue, entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	e.up(len(e.queue) - 1)
}

// up restores the heap after an append at index i.
func (e *Engine) up(i int) {
	q := e.queue
	ent := q[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !ent.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ent
}

// pop removes and returns the earliest entry. The queue must not be empty.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the event reference
	e.queue = q[:n]
	if n == 0 {
		return top
	}
	// Sift the former last entry down from the root.
	q = q[:n]
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+arity && c < n; c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&last) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = last
	return top
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Every schedules fn to run first after start and then every period.
// period must be positive.
func (e *Engine) Every(start, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	tk := &Ticker{}
	var tick func()
	tick = func() {
		if tk.stopped {
			return
		}
		fn()
		if tk.stopped {
			return
		}
		tk.cur = e.After(period, tick)
	}
	tk.cur = e.After(start, tick)
	return tk
}

// Stop halts a Run/RunUntil in progress after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
// It returns ErrStopped if stopped early.
func (e *Engine) Run() error { return e.run(Time(1<<62), false) }

// RunUntil executes all events with timestamps <= deadline, then advances
// the clock to exactly deadline. It returns ErrStopped if stopped early.
func (e *Engine) RunUntil(deadline Time) error { return e.run(deadline, true) }

func (e *Engine) run(deadline Time, advance bool) error {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		next := e.pop()
		if ev, ok := next.ev.(*event); ok {
			if ev.cancelled {
				continue
			}
			ev.fired = true
		}
		e.now = next.at
		e.fired++
		next.ev.Fire()
		if e.stopped {
			return ErrStopped
		}
	}
	if advance && e.now < deadline {
		e.now = deadline
	}
	return nil
}
