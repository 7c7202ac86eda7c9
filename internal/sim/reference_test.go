package sim

// The event queue this package had before the 4-ary value heap — a
// container/heap of *event with lazy cancellation — kept verbatim (types
// renamed ref*) as the oracle the new kernel is held to: seeded random
// programs must fire the same events, in the same order, at the same
// Now(), with the same EventsFired and Pending, on both.

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

type refTimer struct {
	ev *refEvent
}

func (t *refTimer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

type refEvent struct {
	at        Time
	seq       uint64 // insertion order, breaks ties deterministically
	fn        func()
	cancelled bool
	fired     bool
	index     int // heap index
}

type refEventQueue []*refEvent

func (q refEventQueue) Len() int { return len(q) }

func (q refEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refEventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refEventQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refEventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type refEngine struct {
	now     Time
	queue   refEventQueue
	seq     uint64
	stopped bool
	running bool
	fired   uint64
}

func (e *refEngine) Now() Time           { return e.now }
func (e *refEngine) EventsFired() uint64 { return e.fired }
func (e *refEngine) Pending() int        { return len(e.queue) }

func (e *refEngine) At(t Time, fn func()) *refTimer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return &refTimer{ev: ev}
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run() error { return e.run(Time(1<<62), false) }

func (e *refEngine) RunUntil(deadline Time) error { return e.run(deadline, true) }

func (e *refEngine) run(deadline Time, advance bool) error {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.at > deadline {
			break
		}
		heap.Pop(&e.queue)
		if next.cancelled {
			continue
		}
		e.now = next.at
		next.fired = true
		e.fired++
		next.fn()
		if e.stopped {
			return ErrStopped
		}
	}
	if advance && e.now < deadline {
		e.now = deadline
	}
	return nil
}

// kernel is what a random program needs from either engine. schedule
// returns the event's cancel function, or nil for a typed event (which
// has none; the reference schedules it as a callback it never cancels).
type kernel interface {
	Now() Time
	EventsFired() uint64
	Pending() int
	Stop()
	Run() error
	RunUntil(Time) error
	schedule(t Time, typed bool, fn func()) func() bool
}

type funcEvent struct{ fn func() }

func (f *funcEvent) Fire() { f.fn() }

type newKernel struct{ *Engine }

func (k newKernel) schedule(t Time, typed bool, fn func()) func() bool {
	if typed {
		k.AtEvent(t, &funcEvent{fn})
		return nil
	}
	return k.At(t, fn).Cancel
}

type refKernel struct{ *refEngine }

func (k refKernel) schedule(t Time, typed bool, fn func()) func() bool {
	tm := k.At(t, fn)
	if typed {
		return nil
	}
	return tm.Cancel
}

// program is a seeded random workload over a kernel. Every decision is
// drawn from rng as events fire, so two kernels see the same program
// exactly as long as they fire the same events in the same order — and
// the logs differ from the first event they do not.
type program struct {
	k       kernel
	rng     *rand.Rand
	log     []string
	cancels []func() bool
	spawned int
	budget  int
}

func (p *program) note(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// delay mixes the shapes a simulation produces: many events at one
// instant, near neighbours, and a wide spread.
func (p *program) delay() time.Duration {
	switch p.rng.IntN(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(p.rng.IntN(4))
	case 2:
		return time.Duration(p.rng.IntN(1000)) * time.Microsecond
	default:
		return time.Duration(p.rng.Int64N(int64(50 * time.Millisecond)))
	}
}

func (p *program) spawn() {
	if p.spawned >= p.budget {
		return
	}
	id := p.spawned
	p.spawned++
	typed := p.rng.IntN(3) == 0
	if c := p.k.schedule(p.k.Now().Add(p.delay()), typed, func() { p.fire(id) }); c != nil {
		p.cancels = append(p.cancels, c)
	}
}

func (p *program) cancelOne() {
	if len(p.cancels) == 0 {
		return
	}
	i := p.rng.IntN(len(p.cancels))
	p.note("cancel %d -> %v", i, p.cancels[i]())
}

func (p *program) fire(id int) {
	p.note("fire %d at %d fired=%d pending=%d", id, p.k.Now(), p.k.EventsFired(), p.k.Pending())
	for n := p.rng.IntN(4); n > 0; n-- {
		p.spawn()
	}
	if p.rng.IntN(3) == 0 {
		p.cancelOne()
	}
	if p.rng.IntN(40) == 0 {
		p.note("stop")
		p.k.Stop()
	}
}

// runProgram drives one program to completion: a seeding burst, a few
// RunUntil phases with scheduling and cancelling in between, then Run
// until the queue is empty (resuming after every Stop).
func runProgram(k kernel, seed uint64, budget int) []string {
	p := &program{k: k, rng: rand.New(rand.NewPCG(seed, 0x5eed)), budget: budget}
	phase := func(what string, err error) {
		p.note("%s -> %v now=%d fired=%d pending=%d", what, err, k.Now(), k.EventsFired(), k.Pending())
	}
	for n := 1 + p.rng.IntN(32); n > 0; n-- {
		p.spawn()
	}
	for i := 0; i < 6; i++ {
		phase("RunUntil", k.RunUntil(k.Now().Add(p.delay())))
		p.spawn()
		p.cancelOne()
	}
	for {
		err := k.Run()
		phase("Run", err)
		if err == nil {
			return p.log
		}
	}
}

func checkSameOrder(t *testing.T, seed uint64, budget int) {
	t.Helper()
	want := runProgram(refKernel{&refEngine{}}, seed, budget)
	got := runProgram(newKernel{NewEngine(1)}, seed, budget)
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("seed %d budget %d: step %d differs\n  reference: %s\n  kernel:    %s", seed, budget, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("seed %d budget %d: reference logged %d steps, kernel %d", seed, budget, len(want), len(got))
	}
}

func TestKernelMatchesReference(t *testing.T) {
	steps := 0
	for seed := uint64(1); seed <= 300; seed++ {
		budget := 1 + int(seed*37%2000)
		checkSameOrder(t, seed, budget)
		steps += budget
	}
	t.Logf("300 programs, %d events scheduled", steps)
}

func FuzzEventOrder(f *testing.F) {
	f.Add(uint64(1), uint16(50))
	f.Add(uint64(42), uint16(5000))
	f.Fuzz(func(t *testing.T, seed uint64, budget uint16) {
		checkSameOrder(t, seed, int(budget))
	})
}

// holdEvent is the classic hold model as a typed event: on firing it
// reschedules itself a pseudo-random delay ahead, so the queue keeps its
// depth and every operation is one pop plus one push at a fresh position.
type holdEvent struct {
	e    *Engine
	x    uint64
	left *int
}

func (h *holdEvent) next() Time {
	h.x = h.x*6364136223846793005 + 1442695040888963407
	return h.e.Now().Add(time.Duration(1+(h.x>>33)%1000) * time.Microsecond)
}

func (h *holdEvent) Fire() {
	h.e.AtEvent(h.next(), h)
	if *h.left--; *h.left <= 0 {
		h.e.Stop()
	}
}

// BenchmarkScheduleFireDepth measures one schedule + fire with the queue
// held at a fixed depth, through the callback path (At: an event, a Timer)
// and the typed path (AtEvent: nothing). BenchmarkEngineScheduleFire is the
// depth-1 callback case only, where the heap does no work.
func BenchmarkScheduleFireDepth(b *testing.B) {
	for _, depth := range []int{1, 4096, 65536} {
		b.Run(fmt.Sprintf("func/depth=%d", depth), func(b *testing.B) {
			e := NewEngine(1)
			left := b.N
			for i := 0; i < depth; i++ {
				h := &holdEvent{e: e, x: uint64(i), left: &left}
				var fn func()
				fn = func() {
					e.At(h.next(), fn)
					if left--; left <= 0 {
						e.Stop()
					}
				}
				e.At(h.next(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != ErrStopped {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("typed/depth=%d", depth), func(b *testing.B) {
			e := NewEngine(1)
			left := b.N
			for i := 0; i < depth; i++ {
				h := &holdEvent{e: e, x: uint64(i), left: &left}
				e.AtEvent(h.next(), h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != ErrStopped {
				b.Fatal(err)
			}
		})
	}
}
