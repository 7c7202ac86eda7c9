package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/engine"
	"tstorm/internal/textdata"
	"tstorm/internal/tuple"
)

// rung is one stretch of offered load. The generator follows whichever
// rung is current; nil means idle.
type rung struct {
	// rate is the offered load in lines/s summed over all readers;
	// 0 means closed loop: one line per NextTuple, as fast as the
	// engine's bounded queues (or MaxPending) admit them.
	rate float64
	// start, measureFrom and end are nanoseconds on the generator's
	// clock. Lines due in [measureFrom, end) are the measured ones;
	// no line is due at or after end.
	start, measureFrom, end int64
}

// loadGen is the benchmark's load generator: the Word Count topology's
// reader spouts, owned by the bench so that it — not the program under
// test — decides the corpus offset, the pace, and how roots are timed.
// One loadGen serves all reader executors of one process.
type loadGen struct {
	offset   int  // corpus offset, from -seed
	anchored bool // EmitWithID (acked, timed) vs Emit
	epoch    time.Time
	cur      atomic.Pointer[rung]
	readers  []*reader

	// onOpen, when set, runs once in the process where a reader is first
	// opened; polled flips at the first NextTuple. A dist worker's
	// generator has no bench goroutine beside it, so these are how its
	// autopilot learns that this process hosts the readers and that the
	// fleet has resumed.
	onOpen func()
	opened sync.Once
	polled atomic.Bool
}

func newLoadGen(readers, offset int, anchored bool) *loadGen {
	g := &loadGen{offset: offset, anchored: anchored, epoch: time.Now()}
	for i := 0; i < readers; i++ {
		g.readers = append(g.readers, &reader{
			gen: g, idx: i, step: readers,
			pending: make(map[int64]pendingLine),
		})
	}
	return g
}

func (g *loadGen) now() int64 { return int64(time.Since(g.epoch)) }

// closedLoop starts a closed-loop rung that lasts until stop.
func (g *loadGen) closedLoop() { g.cur.Store(&rung{end: 1 << 62}) }

// pace starts an open-loop rung now: settle unmeasured, then measure.
func (g *loadGen) pace(rate float64, settle, measure time.Duration) {
	now := g.now()
	g.cur.Store(&rung{rate: rate, start: now, measureFrom: now + int64(settle), end: now + int64(settle+measure)})
}

func (g *loadGen) stop() { g.cur.Store(nil) }

// spout returns the factory to install as app.Spouts["reader"].
func (g *loadGen) spout() func() engine.Spout {
	return func() engine.Spout { return &genSpout{gen: g} }
}

// genStats is what a harvest returns: the measured lines' latency (due
// time → Ack) and generator lag (emit − due), both in nanoseconds, plus
// the conservation counters.
type genStats struct {
	lat, lag *hist
	// latSub and lagSub split lat and lag by the sub-window (subWindow
	// long, counted from the rung's measureFrom) each line was due in.
	latSub, lagSub []*hist

	emitted  int64 // distinct lines emitted, all rungs
	acked    int64 // distinct lines acked
	timedOut int64 // Fail calls
	replayed int64 // re-emits after a Fail
	pending  int64 // lines still owed an Ack
}

// counters returns the cumulative conservation counters without
// disturbing the histograms.
func (g *loadGen) counters() genStats {
	var s genStats
	for _, r := range g.readers {
		r.mu.Lock()
		s.emitted += r.seq
		s.acked += r.acked
		s.timedOut += r.timedOut
		s.replayed += r.replayed
		s.pending += int64(len(r.pending))
		r.mu.Unlock()
	}
	return s
}

// harvest sums the readers' state and resets the latency and lag
// histograms for the next rung. Counters are cumulative.
func (g *loadGen) harvest() genStats {
	s := g.counters()
	s.lat, s.lag = newHist(), newHist()
	for _, r := range g.readers {
		r.mu.Lock()
		s.latSub = mergeSubs(s.latSub, r.lat, s.lat)
		s.lagSub = mergeSubs(s.lagSub, r.lag, s.lag)
		r.lat, r.lag = nil, nil
		r.mu.Unlock()
	}
	return s
}

// mergeSubs adds one reader's per-sub-window histograms into the running
// per-sub-window sums and into the pooled total.
func mergeSubs(into, from []*hist, total *hist) []*hist {
	for i, h := range from {
		subHist(&into, i).merge(h)
		total.merge(h)
	}
	return into
}

// subHist returns the i-th histogram of a per-sub-window list, growing
// the list as needed.
func subHist(list *[]*hist, i int) *hist {
	for len(*list) <= i {
		*list = append(*list, newHist())
	}
	return (*list)[i]
}

// owed is how many emitted lines still await an Ack or a replay.
func (g *loadGen) owed() int64 { return g.counters().pending }

// lineCounts returns how many times each corpus line was emitted, by
// corpus index — the input of the reference word count.
func (g *loadGen) lineCounts() []int64 {
	n := textdata.NumLines()
	counts := make([]int64, n)
	for _, r := range g.readers {
		r.mu.Lock()
		seq := r.seq
		r.mu.Unlock()
		// Reader idx emits corpus lines offset+idx, offset+idx+step, ….
		for s := int64(0); s < seq; s++ {
			counts[(int64(g.offset+r.idx)+s*int64(r.step))%int64(n)]++
		}
	}
	return counts
}

type pendingLine struct {
	due int64
	sub int // sub-window the line was due in; -1 = not measured
}

// reader is one reader executor's state. It lives in the loadGen, not in
// the spout instance, so the bench can read it; the spout goroutine is
// the only writer, and mu orders it against the bench's harvest.
type reader struct {
	gen       *loadGen
	idx, step int

	mu       sync.Mutex
	seq      int64 // distinct lines emitted so far = next sequence number
	cur      *rung
	k        int64 // lines emitted in the current rung
	pending  map[int64]pendingLine
	replays  []int64
	lat, lag []*hist // by sub-window of the due time
	acked    int64
	timedOut int64
	replayed int64

	// dueNow is the due time of the line being emitted right now, for the
	// tracing decorator (which sees the Emit call but not the schedule).
	dueNow int64

	// busyNs is the time spent inside NextTuple: the reader's share of
	// the per-component busy accounting (the engine keeps a process-time
	// histogram per bolt, none per spout).
	busyNs atomic.Int64
}

func (r *reader) line(seq int64) string {
	return textdata.Line(r.gen.offset + r.idx + int(seq)*r.step)
}

// genSpout is the engine.Spout the engine instantiates per executor; all
// state is in the reader it binds to at Open.
type genSpout struct {
	gen *loadGen
	r   *reader
}

var _ engine.Spout = (*genSpout)(nil)

func (s *genSpout) Open(ctx *engine.Context) {
	s.r = s.gen.readers[ctx.Index]
	if s.gen.onOpen != nil {
		s.gen.opened.Do(s.gen.onOpen)
	}
}

func (s *genSpout) NextTuple(em engine.SpoutEmitter) {
	t0 := s.gen.now()
	s.r.next(em, t0)
	s.r.busyNs.Add(s.gen.now() - t0)
}

// next emits whatever is due at now.
func (r *reader) next(em engine.SpoutEmitter, now int64) {
	g := r.gen
	if !g.polled.Load() {
		g.polled.Store(true)
	}
	rg := g.cur.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.replays) > 0 {
		// A timed-out line goes out again under its original sequence
		// number and due time: its latency is what the user waited.
		seq := r.replays[0]
		r.replays = r.replays[1:]
		r.replayed++
		em.EmitWithID("", tuple.Values{r.line(seq)}, seq)
		return
	}
	if rg == nil {
		return
	}
	if rg != r.cur {
		r.cur, r.k = rg, 0
	}
	if rg.rate == 0 {
		if now < rg.end {
			r.emit(em, now, -1)
		}
		return
	}
	// Open loop: every line whose due time has passed goes out now,
	// stamped with its due time — a generator stall is charged to the
	// lines it delayed instead of thinning the offered load.
	gap := 1e9 / rg.rate
	for {
		due := rg.start + int64(float64(r.k*int64(r.step)+int64(r.idx))*gap)
		if due > now || due >= rg.end {
			return
		}
		sub := -1
		if due >= rg.measureFrom {
			sub = int((due - rg.measureFrom) / int64(subWindow))
			subHist(&r.lag, sub).add(now - due)
		}
		r.emit(em, due, sub)
		r.k++
	}
}

// emit sends the next fresh line. Caller holds r.mu.
func (r *reader) emit(em engine.SpoutEmitter, due int64, sub int) {
	seq := r.seq
	r.seq++
	r.dueNow = due
	if !r.gen.anchored {
		em.Emit("", tuple.Values{r.line(seq)})
		return
	}
	r.pending[seq] = pendingLine{due: due, sub: sub}
	em.EmitWithID("", tuple.Values{r.line(seq)}, seq)
}

// dueUnix is the due time, in Unix nanoseconds, of the line this spout is
// emitting; the tracing decorator starts the line's root span there, so
// that generator lag is part of the traced latency as it is of the timed
// one.
func (s *genSpout) dueUnix() int64 { return s.gen.epoch.UnixNano() + s.r.dueNow }

func (s *genSpout) Ack(msgID any) {
	seq, ok := msgID.(int64)
	if !ok {
		return
	}
	r := s.r
	now := s.gen.now()
	r.mu.Lock()
	if p, live := r.pending[seq]; live {
		delete(r.pending, seq)
		r.acked++
		if p.sub >= 0 {
			subHist(&r.lat, p.sub).add(now - p.due)
		}
	}
	r.mu.Unlock()
}

func (s *genSpout) Fail(msgID any) {
	seq, ok := msgID.(int64)
	if !ok {
		return
	}
	r := s.r
	r.mu.Lock()
	if _, live := r.pending[seq]; live {
		r.timedOut++
		r.replays = append(r.replays, seq)
	}
	r.mu.Unlock()
}
