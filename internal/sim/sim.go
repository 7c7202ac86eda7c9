// Package sim provides the discrete-event simulation (DES) kernel that the
// rest of the system runs on: a virtual clock, a deterministic event queue,
// cancellable timers and tickers, and a seeded random source.
//
// Everything scheduled on one Engine executes on a single goroutine in
// strict (time, insertion-order) order, so simulation components need no
// internal locking and every run with the same seed is bit-reproducible.
//
// The queue is a 4-ary min-heap of {at, seq, event} values ordered by
// (at, seq), beside any number of lanes: FIFOs for events whose instants
// never decrease, such as timeouts of one constant length. seq is unique
// and shared by the heap and the lanes, so the order is total and the pop
// sequence — the earliest of the heap's head and the lanes' heads — does
// not depend on where an event was queued, nor on the heap's shape or
// arity: only on what was scheduled.
package sim

import (
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

// Timer is a handle to a scheduled callback. The zero value is not a valid
// timer; timers are created by Engine.At and Engine.After.
type Timer struct {
	ev *event
}

// Cancel prevents the timer's callback from firing. It reports whether the
// cancellation was effective (false if the callback already ran or the
// timer was cancelled before).
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil {
		return false
	}
	return t.ev.Cancel()
}

// Cancellable makes a typed event on a Lane cancellable: an Event that
// embeds it can be cancelled with Cancel, as a Timer cancels its callback,
// and the run loop skips it when it comes due — lazily, without advancing
// Now() or counting in EventsFired. A lane's events are the ones worth the
// check (a timeout is armed to be cancelled); the heap's typed events, by
// far the most numerous, are not asked. The zero value is an uncancelled
// event.
type Cancellable struct {
	cancelled bool
	fired     bool
}

// Cancel prevents the event from firing. It reports whether the
// cancellation was effective (false if the event already fired or was
// cancelled before).
func (c *Cancellable) Cancel() bool {
	if c.cancelled || c.fired {
		return false
	}
	c.cancelled = true
	return true
}

func (c *Cancellable) state() *Cancellable { return c }

// cancellable is an Event embedding Cancellable.
type cancellable interface {
	state() *Cancellable
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
	fn func()
	Cancellable
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
	lanes   []*Lane
	seq     uint64
	rng     *rand.Rand
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
	e.queue = append(e.queue, e.stamp(t, ev))
	e.up(len(e.queue) - 1)
}

// stamp returns ev's queue entry at t, numbered by the engine's one
// scheduling counter. Scheduling in the past panics.
func (e *Engine) stamp(t Time, ev Event) entry {
	if t < e.now {
		e.inPast(t)
	}
	e.seq++
	return entry{at: t, seq: e.seq - 1, ev: ev}
}

// inPast panics for an event scheduled at t before now; out of line, so
// that stamp inlines.
//
//go:noinline
func (e *Engine) inPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
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

// Lane is a FIFO beside the engine's heap for events whose instants never
// decrease — the timeouts of one constant length that a run arms as it
// goes are the case it exists for. Queueing and popping cost O(1) where the
// heap costs O(log n), and entries waiting far ahead stay out of the heap
// that every other event sifts through. A lane numbers its entries from
// the engine's one scheduling counter, and the run loop fires the earliest
// by (at, seq) of the heap's head and the lanes' heads: entries in a FIFO
// of non-decreasing instants and increasing seq are already in that order,
// so merging the heads fires every event exactly when it would have fired
// from the heap. Cancelled lane events are skipped as on the heap.
type Lane struct {
	e    *Engine
	buf  []entry // ring, a power of two long
	head int
	n    int
}

// NewLane returns an empty lane of e.
func (e *Engine) NewLane() *Lane {
	l := &Lane{e: e}
	e.lanes = append(e.lanes, l)
	return l
}

// AtEvent is Engine.AtEvent on the lane, except that ev can be cancelled
// if it embeds Cancellable. t must not be before the instant of the event
// queued on the lane last: that panics, as scheduling in the past does.
func (l *Lane) AtEvent(t Time, ev Event) {
	mask := len(l.buf) - 1
	if l.n > 0 {
		if tail := l.buf[(l.head+l.n-1)&mask].at; t < tail {
			panic(fmt.Sprintf("sim: lane event at %v before the lane's last at %v", t, tail))
		}
	}
	ent := l.e.stamp(t, ev)
	if l.n == len(l.buf) {
		grown := make([]entry, max(2*len(l.buf), 16))
		k := copy(grown, l.buf[l.head:])
		copy(grown[k:], l.buf[:l.head])
		l.buf, l.head, mask = grown, 0, len(grown)-1
	}
	l.buf[(l.head+l.n)&mask] = ent
	l.n++
}

// pop removes and returns the lane's head. The lane must not be empty.
func (l *Lane) pop() entry {
	slot := &l.buf[l.head]
	top := *slot
	*slot = entry{} // drop the event reference
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return top
}

// next removes and returns the earliest entry of the heap and the lanes
// when it is due by deadline, and whether it came from a lane.
func (e *Engine) next(deadline Time) (next entry, onLane, ok bool) {
	var top *entry
	var from *Lane
	if len(e.queue) > 0 {
		top = &e.queue[0]
	}
	for _, l := range e.lanes {
		if l.n > 0 && (top == nil || l.buf[l.head].before(top)) {
			top, from = &l.buf[l.head], l
		}
	}
	switch {
	case top == nil || top.at > deadline:
		return entry{}, false, false
	case from != nil:
		return from.pop(), true, true
	default:
		return e.pop(), false, true
	}
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

// Run executes events until the queue is empty.
func (e *Engine) Run() error { return e.run(Time(1<<62), false) }

// RunUntil executes all events with timestamps <= deadline, then advances
// the clock to exactly deadline.
func (e *Engine) RunUntil(deadline Time) error { return e.run(deadline, true) }

func (e *Engine) run(deadline Time, advance bool) error {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	for {
		next, onLane, ok := e.next(deadline)
		if !ok {
			break
		}
		// Callback events and lane events embedding Cancellable can be
		// cancelled; the heap's typed events are not asked.
		var c *Cancellable
		if ev, ok := next.ev.(*event); ok {
			c = &ev.Cancellable
		} else if onLane {
			if ev, ok := next.ev.(cancellable); ok {
				c = ev.state()
			}
		}
		if c != nil {
			if c.cancelled {
				continue
			}
			c.fired = true
		}
		e.now = next.at
		e.fired++
		next.ev.Fire()
	}
	if advance && e.now < deadline {
		e.now = deadline
	}
	return nil
}
