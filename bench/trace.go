package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/engine"
	"tstorm/internal/tuple"
)

// The traced pass wraps the topology's spout and bolt factories in
// bench-owned decorators. One line in traceEvery carries three trailing
// tuple values — root id, producer span id, hand-off instant — which the
// receiving decorator strips before the real bolt sees the tuple and
// re-attaches to whatever the bolt emits. Untagged tuples pay one length
// check. Nothing inside the program under test changes.

const traceEvery = 64

// tagLen is how many trailing values a tagged tuple carries.
const tagLen = 3

// span is one decorated call. Times are Unix nanoseconds so spans from
// dist worker processes (same host, same clock) merge with the driver's.
type span struct {
	Name   string `json:"name"` // layer.component
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   uint64 `json:"root"`
	// Sent is the instant the parent handed this tuple off (its Emit
	// call); Start − Sent is the hop wait. On a root span it is the
	// instant of the root's own Emit call, and End stays 0 when no Ack
	// ever closes the root (unanchored topologies).
	Sent int64 `json:"sent,omitempty"`
}

// tracer collects spans in memory; they are written out when the run
// ends. Each decorator instance appends to its own buffer, so recording
// never contends across executors.
type tracer struct {
	idBase uint64 // keeps ids of different processes apart
	nextID atomic.Uint64

	mu     sync.Mutex
	bufs   []*spanBuf
	emitNs *hist // duration of the spout's Emit calls on tagged lines

	// file, when set (dist workers), is where a flusher started with the
	// first decorated instance appends the spans every flushEvery: a
	// worker process ends by SIGKILL, so it cannot write them on exit.
	file    string
	flusher sync.Once
}

const flushEvery = 250 * time.Millisecond

// flush appends the spans recorded since the last flush to t.file.
func (t *tracer) flush() {
	for range time.Tick(flushEvery) {
		spans := t.drain()
		if len(spans) == 0 {
			continue
		}
		f, err := os.OpenFile(t.file, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			continue
		}
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for i := range spans {
			enc.Encode(&spans[i])
		}
		w.Flush()
		f.Close()
	}
}

func (t *tracer) started() {
	if t.file != "" {
		t.flusher.Do(func() { go t.flush() })
	}
}

type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{idBase: uint64(os.Getpid()) << 40, emitNs: newHist()}
}

func (t *tracer) id() uint64 { return t.idBase | t.nextID.Add(1) }

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// drain removes and returns every span recorded so far.
func (t *tracer) drain() []span {
	t.mu.Lock()
	bufs := append([]*spanBuf(nil), t.bufs...)
	t.mu.Unlock()
	var out []span
	for _, b := range bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.spans = nil
		b.mu.Unlock()
	}
	return out
}

// wrap installs the decorators on an app's factories.
func (t *tracer) wrap(app *engine.App, anchored bool) {
	for name, mk := range app.Spouts {
		name, mk := name, mk
		app.Spouts[name] = func() engine.Spout {
			t.started()
			return &tracedSpout{inner: mk(), t: t, name: "live." + name, anchored: anchored,
				buf: t.buf(), open: make(map[any]span)}
		}
	}
	for name, mk := range app.Bolts {
		name, mk := name, mk
		// Input arity per the topology's declared streams: what the
		// inner bolt expects to see once the tag is stripped.
		arity := 1
		if name == "mongo" {
			arity = 2
		}
		app.Bolts[name] = func() engine.Bolt {
			t.started()
			return &tracedBolt{inner: mk(), t: t, name: "live." + name, arity: arity, buf: t.buf()}
		}
	}
}

type tracedSpout struct {
	inner    engine.Spout
	t        *tracer
	name     string
	anchored bool
	buf      *spanBuf
	lines    int64
	open     map[any]span // tagged roots awaiting their Ack
	em       tagSpoutEmitter
}

func (s *tracedSpout) Open(ctx *engine.Context) { s.inner.Open(ctx) }

func (s *tracedSpout) NextTuple(em engine.SpoutEmitter) {
	s.em = tagSpoutEmitter{SpoutEmitter: em, s: s}
	s.inner.NextTuple(&s.em)
}

func (s *tracedSpout) Ack(msgID any) {
	if sp, ok := s.open[msgID]; ok {
		delete(s.open, msgID)
		sp.End = time.Now().UnixNano()
		s.buf.add(sp)
	}
	s.inner.Ack(msgID)
}

func (s *tracedSpout) Fail(msgID any) {
	delete(s.open, msgID) // a replay is not the traced emission
	s.inner.Fail(msgID)
}

// tagSpoutEmitter tags one line in traceEvery and times its Emit call.
type tagSpoutEmitter struct {
	engine.SpoutEmitter
	s *tracedSpout
}

func (e *tagSpoutEmitter) tagged(vals tuple.Values) (tuple.Values, span, bool) {
	e.s.lines++
	if e.s.lines%traceEvery != 0 {
		return vals, span{}, false
	}
	id := e.s.t.id()
	now := time.Now().UnixNano()
	out := make(tuple.Values, 0, len(vals)+tagLen)
	out = append(append(out, vals...), int64(id), int64(id), now)
	// A paced generator says when the line was due: the root span starts
	// there, so the wait for the generator is on the books.
	start := now
	if g, ok := e.s.inner.(interface{ dueUnix() int64 }); ok {
		start = min(g.dueUnix(), now)
	}
	return out, span{Name: e.s.name, Start: start, ID: id, Root: id, Sent: now}, true
}

func (e *tagSpoutEmitter) Emit(stream string, vals tuple.Values) {
	vals, sp, ok := e.tagged(vals)
	e.SpoutEmitter.Emit(stream, vals)
	if ok {
		e.done(sp, nil)
	}
}

func (e *tagSpoutEmitter) EmitWithID(stream string, vals tuple.Values, msgID any) {
	vals, sp, ok := e.tagged(vals)
	e.SpoutEmitter.EmitWithID(stream, vals, msgID)
	if ok {
		e.done(sp, msgID)
	}
}

// done records how long the tagged Emit call took and files the root
// span: at once when no Ack will come, else held until it does.
func (e *tagSpoutEmitter) done(sp span, msgID any) {
	t := e.s.t
	d := time.Now().UnixNano() - sp.Sent
	t.mu.Lock()
	t.emitNs.add(d)
	t.mu.Unlock()
	if e.s.anchored && msgID != nil {
		e.s.open[msgID] = sp
		return
	}
	e.s.buf.add(sp)
}

type tracedBolt struct {
	inner engine.Bolt
	t     *tracer
	name  string
	arity int
	buf   *spanBuf
}

func (b *tracedBolt) Prepare(ctx *engine.Context) { b.inner.Prepare(ctx) }

func (b *tracedBolt) Execute(in tuple.Tuple, em engine.Emitter) {
	if len(in.Values) != b.arity+tagLen {
		b.inner.Execute(in, em)
		return
	}
	root, ok1 := in.Values[b.arity].(int64)
	parent, ok2 := in.Values[b.arity+1].(int64)
	sent, ok3 := in.Values[b.arity+2].(int64)
	if !ok1 || !ok2 || !ok3 {
		b.inner.Execute(in, em)
		return
	}
	in.Values = in.Values[:b.arity]
	sp := span{Name: b.name, Start: time.Now().UnixNano(), ID: b.t.id(),
		Parent: uint64(parent), Root: uint64(root), Sent: sent}
	b.inner.Execute(in, &tagBoltEmitter{Emitter: em, root: root, id: int64(sp.ID)})
	sp.End = time.Now().UnixNano()
	b.buf.add(sp)
}

// tagBoltEmitter re-attaches the tag to a traced tuple's emissions.
type tagBoltEmitter struct {
	engine.Emitter
	root, id int64
}

func (e *tagBoltEmitter) Emit(stream string, vals tuple.Values) {
	out := make(tuple.Values, 0, len(vals)+tagLen)
	out = append(append(out, vals...), e.root, e.id, time.Now().UnixNano())
	e.Emitter.Emit(stream, out)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a JSON-lines span file (what dist workers leave in the
// temp dir).
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// traceSummary is what the analysis of one traced pass yields.
type traceSummary struct {
	roots   int   // complete trees (root span closed, a sink span found)
	hopWait *hist // every child.Start − child.Sent, ns
	// pathSelfNs and pathWaitNs hold, per complete tree, the self times
	// and the hop waits (ack wait included) summed along its critical
	// chain: the sink span that ended last, followed up to the root.
	pathSelfNs, pathWaitNs []float64
	// selfNs is each layer's self time: span duration minus the part of
	// it that child spans cover.
	selfNs map[string]*hist
}

// analyse rebuilds the trees from a flat span list.
func analyse(spans []span) traceSummary {
	sum := traceSummary{hopWait: newHist(), selfNs: make(map[string]*hist)}
	byID := make(map[uint64]*span, len(spans))
	kids := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
			sum.hopWait.add(s.Start - s.Sent)
		}
	}
	last := make(map[uint64]*span) // root → leaf span that ended last
	for i := range spans {
		s := &spans[i]
		// Self time: duration minus the union of the children's overlap.
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		h := sum.selfNs[s.Name]
		if h == nil {
			h = newHist()
			sum.selfNs[s.Name] = h
		}
		h.add(s.End - s.Start - covered)
		if len(ch) == 0 && s.Parent != 0 {
			if l := last[s.Root]; l == nil || s.End > l.End {
				last[s.Root] = s
			}
		}
	}
	for rootID, leaf := range last {
		root := byID[rootID]
		if root == nil || root.End <= root.Start {
			continue // unanchored or unacked root: no completion to explain
		}
		// Walk leaf → root. Each step adds the hop wait into the span and
		// the span's own time up to the hand-off of the next one down.
		wait := root.End - leaf.End // ack wait: sink done → spout told
		self, until := int64(0), leaf.End
		complete := true
		for s := leaf; s != root; {
			self += until - s.Start
			wait += s.Start - s.Sent
			until = s.Sent
			p := byID[s.Parent]
			if p == nil {
				complete = false
				break
			}
			s = p
		}
		if !complete {
			continue
		}
		// What is left is the root's own stretch: the generator's lag
		// (due → emit) and the Emit call — waiting, from the line's side.
		wait += until - root.Start
		sum.roots++
		sum.pathSelfNs = append(sum.pathSelfNs, float64(self))
		sum.pathWaitNs = append(sum.pathWaitNs, float64(wait))
	}
	return sum
}
