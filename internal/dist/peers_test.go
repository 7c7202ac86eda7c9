package dist

// Unit tests for the outbound half of the data plane: the per-peer
// writer, its accounting, its behaviour on a seeded fault-injecting
// connection, and the borrow contract of Send. Everything runs over real
// loopback sockets and is read back through the production wireReader.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/live"
	"tstorm/internal/logx"
	"tstorm/internal/topology"
)

// testPeer is a data listener that reads frames with the production
// wireReader and keeps a copy of each, per connection in accept order.
// With a gate, connections are accepted but not read until it is closed.
type testPeer struct {
	ln   net.Listener
	gate chan struct{}

	mu      sync.Mutex
	conns   []net.Conn
	frames  [][][]byte // [connection][frame]
	readers sync.WaitGroup
}

func newTestPeer(t *testing.T, gated bool) *testPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &testPeer{ln: ln}
	if gated {
		tp.gate = make(chan struct{})
	}
	t.Cleanup(func() { ln.Close(); tp.reset() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			tp.mu.Lock()
			i := len(tp.conns)
			tp.conns = append(tp.conns, c)
			tp.frames = append(tp.frames, nil)
			tp.readers.Add(1)
			tp.mu.Unlock()
			go tp.read(i, c)
		}
	}()
	return tp
}

func (tp *testPeer) read(i int, c net.Conn) {
	defer tp.readers.Done()
	if tp.gate != nil {
		<-tp.gate
	}
	r := newWireReader(c)
	for {
		_, frame, err := r.next()
		if err != nil {
			return
		}
		tp.mu.Lock()
		tp.frames[i] = append(tp.frames[i], append([]byte(nil), frame...))
		tp.mu.Unlock()
	}
}

func (tp *testPeer) addr() string { return tp.ln.Addr().String() }

// reset closes every accepted connection, unread backlog and all.
func (tp *testPeer) reset() {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for _, c := range tp.conns {
		c.Close()
	}
}

// received returns every frame read so far, connections in accept order.
func (tp *testPeer) received() (all [][]byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for _, fs := range tp.frames {
		all = append(all, fs...)
	}
	return all
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// seqFrame is a test frame: its sequence number, then a run of bytes
// derived from it, so a receiver can tell a whole frame from a torn one.
func seqFrame(seq uint32, size int) []byte {
	f := binary.BigEndian.AppendUint32(make([]byte, 0, 4+size), seq)
	for i := 0; i < size; i++ {
		f = append(f, byte(seq)+byte(i))
	}
	return f
}

// tupleFrame is seqFrame behind the header of a live data frame carrying
// tuples tuples, as far as live.FrameTuples reads one: the kind byte, the
// target executor (topology "t", component "c", index 0) and the message
// count. The peer writer accounts what it sheds in these tuples.
func tupleFrame(seq uint32, tuples, size int) []byte {
	f := binary.LittleEndian.AppendUint32([]byte{1, 1, 't', 1, 'c', 0}, uint32(tuples))
	return append(f, seqFrame(seq, size)...)
}

// tupleFrameHdr is the length of tupleFrame's header.
const tupleFrameHdr = 10

func checkSeqFrame(t *testing.T, f []byte) uint32 {
	t.Helper()
	if len(f) < 4 {
		t.Fatalf("received a %d-byte frame", len(f))
	}
	seq := binary.BigEndian.Uint32(f)
	if !bytes.Equal(f, seqFrame(seq, len(f)-4)) {
		t.Fatalf("frame %d arrived torn or overwritten", seq)
	}
	return seq
}

// flood sends frames to slot from a goroutine until stop is closed or a
// Send fails; blocked reports how long the current Send has been stuck.
type flood struct {
	done    chan struct{}
	mu      sync.Mutex
	last    time.Time
	longest time.Duration
}

func startFlood(p *peerSet, slot cluster.SlotID, stop <-chan struct{}) *flood {
	f := &flood{done: make(chan struct{}), last: time.Now()}
	go func() {
		defer close(f.done)
		frame := tupleFrame(0, 64, 32<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !p.Send(slot, frame) {
				return
			}
			f.mu.Lock()
			if d := time.Since(f.last); d > f.longest {
				f.longest = d
			}
			f.last = time.Now()
			f.mu.Unlock()
		}
	}()
	return f
}

func (f *flood) blocked() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Since(f.last)
}

// TestStalledPeerKeepsPendingNonZero: frames a peer writer has accepted
// but not yet handed to the kernel are invisible to the engine's pending
// count, so the worker's pending reply — what the driver's quiescence
// trusts — must include them, until the bytes leave or are shed.
func TestStalledPeerKeepsPendingNonZero(t *testing.T) {
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots := cl.Slots()
	local, remote := slots[0], slots[1]
	a := cluster.NewAssignment(0)
	for _, comp := range []string{"gen", topology.AckerComponent, "echo"} {
		a.Assign(topology.ExecutorID{Topology: "trace-stale", Component: comp, Index: 0}, local)
	}
	eng := staleTestEngine(t, cl, staleTestApp(t), a, local, &captureSink{})
	w := &worker{slot: local, baseLog: logx.New(io.Discard, logx.Off), peers: newPeerSet(3), eng: eng}
	w.logv.Store(w.baseLog)
	defer w.peers.closeAll()
	eng.HaltSpouts()
	waitUntil(t, 10*time.Second, "the engine to drain", func() bool { return eng.Pending() == 0 })

	for _, shed := range []bool{false, true} {
		peer := newTestPeer(t, true)
		w.peers.update([]peerEntry{{Slot: remote, Addr: peer.addr()}})
		stop := make(chan struct{})
		fl := startFlood(w.peers, remote, stop)
		waitUntil(t, 10*time.Second, "the sender to block on a full queue", func() bool {
			return fl.blocked() > 100*time.Millisecond
		})
		if eng.Pending() != 0 {
			t.Fatalf("engine pending = %d with spouts halted", eng.Pending())
		}
		if w.pending() == 0 {
			t.Fatal("worker reports pending 0 with frames queued behind a stalled peer")
		}
		close(stop)
		before := w.peers.dropped.Load()
		if shed {
			peer.ln.Close() // the redial after the shed must fail too
			peer.reset()
		} else {
			close(peer.gate)
		}
		<-fl.done
		waitUntil(t, 10*time.Second, "pending to reach 0", func() bool { return w.pending() == 0 })
		if d := w.peers.dropped.Load() - before; shed != (d > 0) {
			t.Fatalf("shed = %v but %d tuples were counted dropped", shed, d)
		}
	}
}

// faultConn wraps a connection and, driven by a seeded generator, makes
// each Write do one of: pass through, arrive late, arrive in fragments,
// break off at an arbitrary byte and reset, or stall until the write
// deadline.
type faultConn struct {
	net.Conn
	rng      *rand.Rand
	faults   *int // resets and deadline expiries injected, across connections
	deadline time.Time
}

func (fc *faultConn) SetWriteDeadline(t time.Time) error {
	fc.deadline = t
	return fc.Conn.SetWriteDeadline(t)
}

func (fc *faultConn) Write(b []byte) (int, error) {
	switch fc.rng.IntN(16) {
	case 0: // late
		time.Sleep(time.Duration(fc.rng.IntN(2000)) * time.Microsecond)
	case 1, 2: // fragments
		n := 0
		for n < len(b) {
			k := min(1+fc.rng.IntN(700), len(b)-n)
			m, err := fc.Conn.Write(b[n : n+k])
			n += m
			if err != nil {
				return n, err
			}
			if fc.rng.IntN(4) == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		return n, nil
	case 3: // truncate, then reset
		*fc.faults++
		n, _ := fc.Conn.Write(b[:fc.rng.IntN(len(b))])
		fc.Conn.Close()
		return n, errors.New("injected reset")
	case 4: // stall
		*fc.faults++
		time.Sleep(time.Until(fc.deadline))
		fc.Conn.Close()
		return 0, os.ErrDeadlineExceeded
	}
	return fc.Conn.Write(b)
}

// TestWriterSurvivesFaultyConnections: whatever the connection does to a
// write, the receiver only ever sees whole frames, in send order; after
// a shed the next Send redials and the new stream starts on a frame
// boundary; and, counted in tuples, sent − shed = received exactly: the
// frames a failed write got through whole are not counted shed, and every
// shed frame is handed to onShed. Faults are drawn per Write, and a writer
// that coalesces more under load makes fewer writes, so one seed may draw
// none: that the run exercised faults, sheds and redials is asserted over
// the four seeds together.
func TestWriterSurvivesFaultyConnections(t *testing.T) {
	if got := live.FrameTuples(tupleFrame(0, 7, 10)); got != 7 {
		t.Fatalf("live.FrameTuples reads %d tuples in a 7-tuple test frame: the header layout moved", got)
	}
	var faultsAll, redials int
	var droppedAll int64
	for seed := uint64(1); seed <= 4; seed++ {
		peer := newTestPeer(t, false)
		slot := cluster.SlotID{Node: "node02", Port: 6700}
		p := newPeerSet(3)
		p.writeTimeout = 150 * time.Millisecond
		rng := rand.New(rand.NewPCG(seed, 15))
		faults := 0
		p.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &faultConn{Conn: c, rng: rng, faults: &faults}, nil
		}
		var shedTuples int64 // written by the writer goroutine, read after closeAll
		p.onShed = func(frame []byte) { shedTuples += int64(live.FrameTuples(frame)) }
		p.update([]peerEntry{{Slot: slot, Addr: peer.addr()}})

		const sent = 3000
		var sentTuples int64
		sizes := rand.New(rand.NewPCG(seed, 16))
		for seq := uint32(0); seq < sent; seq++ {
			size := sizes.IntN(1500)
			if seq%500 == 499 {
				size = wireReadBuf + sizes.IntN(1<<16) // larger than the reader's buffer
			}
			tuples := 1 + sizes.IntN(64)
			sentTuples += int64(tuples)
			if !p.Send(slot, tupleFrame(seq, tuples, size)) {
				t.Fatalf("seed %d: Send %d refused", seed, seq)
			}
			if seq%64 == 0 {
				time.Sleep(200 * time.Microsecond) // let the writer swap now and then
			}
		}
		waitUntil(t, 20*time.Second, "the writer to drain", func() bool { return p.inFlight.Load() == 0 })
		p.closeAll()
		peer.ln.Close()
		peer.readers.Wait()

		got := peer.received()
		next := uint32(0)
		var gotTuples int64
		for _, f := range got {
			seq := checkSeqFrame(t, f[tupleFrameHdr:])
			if seq < next {
				t.Fatalf("seed %d: frame %d arrived after frame %d", seed, seq, next-1)
			}
			next = seq + 1
			gotTuples += int64(live.FrameTuples(f))
		}
		dropped := p.dropped.Load()
		if sentTuples-dropped != gotTuples {
			t.Fatalf("seed %d: sent %d tuples, counted %d shed, received %d", seed, sentTuples, dropped, gotTuples)
		}
		if shedTuples != dropped {
			t.Fatalf("seed %d: %d tuples counted shed, %d handed to onShed", seed, dropped, shedTuples)
		}
		peer.mu.Lock()
		conns := len(peer.conns)
		peer.mu.Unlock()
		faultsAll += faults
		droppedAll += dropped
		redials += conns - 1
		t.Logf("seed %d: %d faults, %d connections, %d/%d frames and %d/%d tuples received, %d tuples counted dropped",
			seed, faults, conns, len(got), sent, gotTuples, sentTuples, dropped)
	}
	if faultsAll == 0 || droppedAll == 0 || redials == 0 {
		t.Fatalf("%d faults injected, %d tuples dropped, %d redials over all seeds: the run exercised nothing", faultsAll, droppedAll, redials)
	}
}

// TestHealthyPeerFlowsWhileAnotherStalls: a peer that stops reading
// delays only the senders to that peer, first by the queue bound and then
// by no more than the write deadline, after which its backlog is shed.
func TestHealthyPeerFlowsWhileAnotherStalls(t *testing.T) {
	stalled, healthy := newTestPeer(t, true), newTestPeer(t, false)
	slotA, slotB := cluster.SlotID{Node: "node02", Port: 6700}, cluster.SlotID{Node: "node03", Port: 6700}
	p := newPeerSet(3)
	defer p.closeAll()
	p.writeTimeout = 500 * time.Millisecond
	p.update([]peerEntry{{Slot: slotA, Addr: stalled.addr()}, {Slot: slotB, Addr: healthy.addr()}})

	stop := make(chan struct{})
	fl := startFlood(p, slotA, stop)
	waitUntil(t, 10*time.Second, "the sender to the stalled peer to block", func() bool {
		return fl.blocked() > 50*time.Millisecond
	})
	const n = 500
	t0 := time.Now()
	for seq := uint32(0); seq < n; seq++ {
		if !p.Send(slotB, seqFrame(seq, 100)) {
			t.Fatalf("Send %d to the healthy peer refused", seq)
		}
	}
	waitUntil(t, 5*time.Second, "the healthy peer to receive everything", func() bool { return len(healthy.received()) == n })
	if d := time.Since(t0); d > 400*time.Millisecond {
		t.Errorf("%d frames to the healthy peer took %v while another peer was stalled", n, d)
	}
	for i, f := range healthy.received() {
		if seq := checkSeqFrame(t, f); seq != uint32(i) {
			t.Fatalf("healthy peer: frame %d arrived in position %d", seq, i)
		}
	}
	// The stalled peer's backlog goes at the deadline: the blocked sender
	// gets through, and was never held longer than the deadline (+ slack).
	waitUntil(t, 10*time.Second, "the stalled peer's backlog to be shed", func() bool { return p.dropped.Load() > 0 })
	close(stop)
	<-fl.done
	if fl.longest > p.writeTimeout+500*time.Millisecond {
		t.Errorf("a Send to the stalled peer blocked for %v, deadline %v", fl.longest, p.writeTimeout)
	}
}

// TestNoWriterOutlivesCloseAll counts the writer goroutines themselves —
// by their frame in a full goroutine dump, not by sleeping and hoping:
// closeAll returns only when every writer ever started is gone, including
// those of links update had already retired and one stuck in a write.
func TestNoWriterOutlivesCloseAll(t *testing.T) {
	writers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*peerConn).run")
	}
	if n := writers(); n != 0 {
		t.Fatalf("%d writer goroutines before the test started", n)
	}
	stalled, healthy, moved := newTestPeer(t, true), newTestPeer(t, false), newTestPeer(t, false)
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone.Close() // an address that refuses connections
	slots := []cluster.SlotID{{Node: "a", Port: 1}, {Node: "b", Port: 1}, {Node: "c", Port: 1}, {Node: "d", Port: 1}}
	p := newPeerSet(3)
	p.update([]peerEntry{
		{Slot: slots[0], Addr: stalled.addr()}, {Slot: slots[1], Addr: healthy.addr()},
		{Slot: slots[2], Addr: gone.Addr().String()}, {Slot: slots[3], Addr: moved.addr()},
	})
	stop := make(chan struct{})
	fl := startFlood(p, slots[0], stop)
	for _, s := range slots[1:] {
		p.Send(s, seqFrame(0, 10))
	}
	waitUntil(t, 10*time.Second, "the flood to block", func() bool { return fl.blocked() > 50*time.Millisecond })
	if n := writers(); n != len(slots) {
		t.Fatalf("%d writer goroutines for %d peers", n, len(slots))
	}
	// Retire one link by moving its slot to another address.
	p.update([]peerEntry{
		{Slot: slots[0], Addr: stalled.addr()}, {Slot: slots[1], Addr: healthy.addr()},
		{Slot: slots[2], Addr: gone.Addr().String()}, {Slot: slots[3], Addr: healthy.addr()},
	})
	p.Send(slots[3], seqFrame(1, 10))
	close(stop)
	p.closeAll()
	<-fl.done
	if n := writers(); n != 0 {
		t.Fatalf("%d writer goroutines outlived closeAll", n)
	}
	if p.Send(slots[1], seqFrame(2, 10)) {
		t.Fatal("Send accepted a frame after closeAll")
	}
	if n := p.inFlight.Load(); n != 0 {
		t.Fatalf("%d frames still counted in flight after closeAll", n)
	}
}

// TestSendDoesNotRetainFrame: Send only borrows its frame. Every frame
// is scribbled over the moment Send returns — while it still sits in the
// queue behind a peer that is not reading — and must arrive as sent.
func TestSendDoesNotRetainFrame(t *testing.T) {
	peer := newTestPeer(t, true)
	slot := cluster.SlotID{Node: "node02", Port: 6700}
	p := newPeerSet(3)
	defer p.closeAll()
	p.update([]peerEntry{{Slot: slot, Addr: peer.addr()}})
	const n = 200
	for seq := uint32(0); seq < n; seq++ {
		f := seqFrame(seq, 300)
		if !p.Send(slot, f) {
			t.Fatalf("Send %d refused", seq)
		}
		for i := range f {
			f[i] = 0xee
		}
	}
	close(peer.gate)
	waitUntil(t, 10*time.Second, "every frame to arrive", func() bool { return len(peer.received()) == n })
	for i, f := range peer.received() {
		if seq := checkSeqFrame(t, f); seq != uint32(i) {
			t.Fatalf("frame %d arrived in position %d", seq, i)
		}
	}
}
