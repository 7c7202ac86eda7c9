package dist

// Unit tests for the outbound half of the data plane: the per-peer
// writer, its accounting and the borrow contract of Send. Everything runs
// over real loopback sockets.

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/logx"
	"tstorm/internal/topology"
)

// stalledPeer is a data listener whose connections are accepted and then
// not read until release is closed.
type stalledPeer struct {
	ln      net.Listener
	release chan struct{}
	mu      sync.Mutex
	conns   []net.Conn
}

func newStalledPeer(t *testing.T) *stalledPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sp := &stalledPeer{ln: ln, release: make(chan struct{})}
	t.Cleanup(func() { ln.Close(); sp.reset() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
			go func() {
				<-sp.release
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return sp
}

// reset closes every accepted connection with its backlog unread.
func (sp *stalledPeer) reset() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, c := range sp.conns {
		c.Close()
	}
	sp.conns = nil
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

// floodUntilBlocked sends frames to slot from a goroutine until one Send
// has not returned for 100 ms — the socket and the peer queue are full —
// and returns a channel that is closed when the sender is done.
func floodUntilBlocked(t *testing.T, p *peerSet, slot cluster.SlotID) <-chan struct{} {
	t.Helper()
	var (
		mu   sync.Mutex
		last = time.Now()
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		frame := make([]byte, 32<<10)
		for i := 0; i < 4096; i++ { // 128 MiB: more than any socket buffer
			if !p.Send(slot, frame) {
				return
			}
			mu.Lock()
			last = time.Now()
			mu.Unlock()
		}
	}()
	waitUntil(t, 10*time.Second, "the sender to block on a full queue", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return time.Since(last) > 100*time.Millisecond
	})
	return done
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
	w := &worker{slot: local, baseLog: logx.Nop(), peers: newPeerSet(local, 3), eng: eng}
	w.logv.Store(w.baseLog)
	defer w.peers.closeAll()
	eng.HaltSpouts()
	waitUntil(t, 10*time.Second, "the engine to drain", func() bool { return eng.Pending() == 0 })

	// Until the bytes leave.
	peer := newStalledPeer(t)
	w.peers.update([]peerEntry{{Slot: remote, Addr: peer.ln.Addr().String()}})
	sent := floodUntilBlocked(t, w.peers, remote)
	if eng.Pending() != 0 {
		t.Fatalf("engine pending = %d with spouts halted", eng.Pending())
	}
	if got := w.pending(); got == 0 {
		t.Fatal("worker reports pending 0 with frames queued behind a stalled peer")
	}
	close(peer.release)
	<-sent
	waitUntil(t, 10*time.Second, "pending to reach 0 once the peer reads", func() bool { return w.pending() == 0 })
	if d := w.peers.dropped.Load(); d != 0 {
		t.Fatalf("%d frames dropped although the peer read everything", d)
	}

	// Until they are shed.
	peer2 := newStalledPeer(t)
	w.peers.update([]peerEntry{{Slot: remote, Addr: peer2.ln.Addr().String()}})
	sent = floodUntilBlocked(t, w.peers, remote)
	if got := w.pending(); got == 0 {
		t.Fatal("worker reports pending 0 with frames queued behind the second stalled peer")
	}
	peer2.ln.Close() // the redial after the shed must fail too
	peer2.reset()
	<-sent
	waitUntil(t, 10*time.Second, "pending to reach 0 once the backlog is shed", func() bool { return w.pending() == 0 })
	if w.peers.dropped.Load() == 0 {
		t.Fatal("a reset connection shed frames but the dropped counter stayed 0")
	}
}
