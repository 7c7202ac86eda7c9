package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// decodeFrame decodes one frame the way Ingest does, against an engine
// that knows no names and whose pools are empty: the codec tests and fuzz
// targets drive the production decoder through it.
func decodeFrame(buf []byte) (*wireFrame, error) {
	f, r := &wireFrame{}, &frameReader{buf: buf}
	if err := f.decodeHeader(r, nil); err != nil {
		return nil, err
	}
	if err := new(Engine).decodeBody(f, r, nil); err != nil {
		return nil, err // the throwaway engine's pools need nothing back
	}
	return f, nil
}

func encodeAckFrame(to topology.ExecutorID, evs []ackEvent) []byte {
	return appendAckFrame(nil, to, evs)
}

// ---- the borrow contract of Ingest, end to end ----

// wireSink joins two LocalSlots-restricted engines in one process, the
// way the dist layer's sockets would: a frame one sends is handed to the
// other's Ingest. With scribble set it then overwrites the frame before
// returning — the hostile reading of "Send and Ingest only borrow": the
// receiver must not have kept a reference, and the sender must not count
// on the bytes surviving the call.
type wireSink struct {
	peer     atomic.Pointer[Engine]
	scribble bool
	kinds    [5]atomic.Int64 // frames seen, by kind byte
}

func (s *wireSink) Send(_ cluster.SlotID, frame []byte) bool {
	s.kinds[frame[0]].Add(1)
	err := s.peer.Load().Ingest(frame)
	if s.scribble {
		for i := range frame {
			frame[i] = 0xee
		}
	}
	return err == nil
}

// keptTuple is what keepAllBolt retains of one input, long after Execute.
type keptTuple struct {
	vals        tuple.Values
	stream, src string
}

type keepAllBolt struct {
	mu   *sync.Mutex
	kept *[]keptTuple
}

func (b *keepAllBolt) Prepare(*engine.Context) {}
func (b *keepAllBolt) Execute(tup tuple.Tuple, _ engine.Emitter) {
	b.mu.Lock()
	*b.kept = append(*b.kept, keptTuple{vals: tup.Values, stream: tup.Stream, src: tup.SrcComponent})
	b.mu.Unlock()
}

// ackedSeqSpout emits (seq, "payload-<seq>") on stream "words" with the
// seq as message ID, up to limit, and counts the acks.
type ackedSeqSpout struct {
	limit int
	seq   int
	acked *atomic.Int64
}

func (s *ackedSeqSpout) Open(*engine.Context) {}
func (s *ackedSeqSpout) NextTuple(em engine.SpoutEmitter) {
	if s.seq >= s.limit {
		return
	}
	em.EmitWithID("words", tuple.Values{int64(s.seq), fmt.Sprintf("payload-%d", s.seq)}, s.seq)
	s.seq++
}
func (s *ackedSeqSpout) Ack(any)  { s.acked.Add(1) }
func (s *ackedSeqSpout) Fail(any) {}

// wirePair runs spout "s" on one engine and bolt "keep" plus the acker on
// another, so that every kind of frame crosses between them: data (plain
// and, for sampled roots, traced) and the spout's ctl inits one way, the
// acker's ack frames the other. It returns once all n roots were acked.
func wirePair(t *testing.T, n int, scribble bool, sampling int) (a, b *Engine, sinks [2]*wireSink, kept []keptTuple) {
	t.Helper()
	tb := topology.NewBuilder("wire-pair", 2).SetAckers(1)
	tb.Spout("s", 1).Output("words", "seq", "payload")
	tb.Bolt("keep", 1).ShuffleStream("s", "words")
	top, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Uniform(2, 2, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots := cl.Slots()
	assign := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		if e.Component == "s" {
			assign.Assign(e, slots[0])
		} else {
			assign.Assign(e, slots[1])
		}
	}
	var (
		mu    sync.Mutex
		acked atomic.Int64
		engs  [2]*Engine
	)
	for i := range engs {
		sinks[i] = &wireSink{scribble: scribble}
		cfg := testConfig()
		cfg.AckTimeout = 30 * time.Second
		cfg.LocalSlots = []cluster.SlotID{slots[i]}
		cfg.Remote = sinks[i]
		cfg.TraceSampling = sampling
		engs[i], err = NewEngine(cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		app := &engine.App{
			Topology: top,
			Spouts: map[string]func() engine.Spout{"s": func() engine.Spout {
				return &ackedSeqSpout{limit: n, acked: &acked}
			}},
			Bolts: map[string]func() engine.Bolt{"keep": func() engine.Bolt {
				return &keepAllBolt{mu: &mu, kept: &kept}
			}},
			MaxPending: map[string]int{"s": 512},
		}
		if err := engs[i].Submit(app, assign); err != nil {
			t.Fatal(err)
		}
	}
	sinks[0].peer.Store(engs[1])
	sinks[1].peer.Store(engs[0])
	for _, eng := range engs {
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Stop)
	}
	waitFor(t, 30*time.Second, "every root acked across the pair", func() bool { return acked.Load() == int64(n) })
	mu.Lock()
	defer mu.Unlock()
	return engs[0], engs[1], sinks, kept
}

func checkKept(t *testing.T, kept []keptTuple, n int) {
	t.Helper()
	seen := make(map[int64]bool, n)
	for i, k := range kept {
		if k.stream != "words" || k.src != "s" {
			t.Fatalf("kept[%d] arrived on stream %q from %q, want \"words\" from \"s\"", i, k.stream, k.src)
		}
		if len(k.vals) != 2 {
			t.Fatalf("kept[%d] has %d values, want 2", i, len(k.vals))
		}
		seq, ok := k.vals[0].(int64)
		if !ok {
			t.Fatalf("kept[%d][0] = %T, want int64", i, k.vals[0])
		}
		if got, want := k.vals[1], fmt.Sprintf("payload-%d", seq); got != want {
			t.Fatalf("kept[%d] payload = %q, want %q: the tuple aliased memory that was reused", i, got, want)
		}
		seen[seq] = true
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct sequences, want %d", len(seen), n)
	}
}

// TestIngestDoesNotRetainCallerBuffer scribbles over every frame the
// moment Ingest returns — usually before the executor has decoded a
// single value out of it. Values, stream and component names, span
// fields, ctl messages and ack events must all come out intact: every
// root completes, every retained tuple reads as sent, and the sampled
// half of the tuples carry sane span fields.
func TestIngestDoesNotRetainCallerBuffer(t *testing.T) {
	const n = 5000
	start := time.Now().UnixNano()
	_, b, sinks, kept := wirePair(t, n, true, 2)
	checkKept(t, kept, n)
	for _, kind := range []int{frameData, frameDataT, frameCtl} {
		if sinks[0].kinds[kind].Load() == 0 {
			t.Errorf("no frame of kind %d went from the spout's engine to the bolt's", kind)
		}
	}
	if sinks[1].kinds[frameAck].Load() == 0 {
		t.Error("no ack frame went from the acker's engine to the spout's")
	}
	spans := b.DrainSpans()
	if len(spans) == 0 {
		t.Fatal("no execute span recorded at the receiving bolt")
	}
	end := time.Now().UnixNano()
	for _, sp := range spans {
		// The spout's emission is the root span's child: its parent is the root.
		if sp.Parent != sp.Root || sp.SentAt < start || sp.SentAt > end {
			t.Fatalf("span of root %#x: parent %#x, sent at %d — span fields did not survive the scribble", sp.Root, sp.Parent, sp.SentAt)
		}
	}
}

// TestSlabRecycleNoAliasing is TestPoolRecycleNoAliasing for the wire
// path: tuples decoded out of pooled slabs and retained by the bolt must
// survive the slabs' reuse by later frames.
func TestSlabRecycleNoAliasing(t *testing.T) {
	const n = 50000
	_, b, _, kept := wirePair(t, n, false, 0)
	checkKept(t, kept, n)
	for _, ps := range b.PoolStats() {
		if ps.Name == "slab" && ps.Hits == 0 {
			t.Fatal("slab pool hits = 0: no slab was ever reused, the test exercised nothing")
		}
	}
}

// TestLiveMsgSize pins the per-tuple slot of a delivery batch: the wire
// path's bookkeeping (slab, frame state) lives beside the batch, never in
// the message.
func TestLiveMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(liveMsg{}); got != 184 {
		t.Fatalf("unsafe.Sizeof(liveMsg{}) = %d, want 184", got)
	}
}

// TestIngestRoutesOnHeaderAlone: a frame for an executor that lives
// elsewhere comes back as NotLocalError without its body being copied or
// decoded — the forwarding worker re-sends the borrowed bytes as they are,
// and the owner is the one to judge them.
func TestIngestRoutesOnHeaderAlone(t *testing.T) {
	a, _, _, _ := wirePair(t, 1, false, 0)
	keep := topology.ExecutorID{Topology: "wire-pair", Component: "keep", Index: 0}
	frame, _ := encodeDataFrame(keep, []liveMsg{{tup: tuple.Tuple{Stream: "words", Values: tuple.Values{int64(1), "x"}}}})
	var nl *NotLocalError
	slab := func() (hits, misses int64) {
		for _, ps := range a.PoolStats() {
			if ps.Name == "slab" {
				return ps.Hits, ps.Misses
			}
		}
		t.Fatal("no slab pool in PoolStats")
		return 0, 0
	}
	h0, m0 := slab()
	// Whole, and cut short inside the body: the header decides either way.
	for _, buf := range [][]byte{frame, frame[:len(frame)-3]} {
		if err := a.Ingest(buf); !errors.As(err, &nl) {
			t.Fatalf("Ingest of a %d-byte frame for a non-resident executor = %v, want NotLocalError", len(buf), err)
		}
	}
	if h1, m1 := slab(); h1 != h0 || m1 != m0 {
		t.Errorf("slab pool gets went %d+%d → %d+%d for frames that were only passing through", h0, m0, h1, m1)
	}
	if err := a.Ingest(frame[:3]); err == nil || errors.As(err, &nl) {
		t.Fatalf("Ingest of a frame cut inside its header = %v, want a decode error", err)
	}
}
