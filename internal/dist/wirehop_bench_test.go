package dist

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/logx"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// hopPayload is the tuple BenchmarkWireHop moves: a Word Count pair.
var hopPayload = tuple.Values{"storm", int64(7)}

// hopSpout emits up to k tuples per cycle while the budget lasts. The
// topology is unanchored, so EmitWithID's deferred ack makes the executor
// flush after every cycle: with one consumer task, one cycle is one frame.
type hopSpout struct {
	k      int
	budget *atomic.Int64
	frames *atomic.Int64
}

func (s *hopSpout) Open(*engine.Context) {}
func (s *hopSpout) NextTuple(em engine.SpoutEmitter) {
	n := int64(s.k)
	if left := s.budget.Add(-n) + n; left < n {
		s.budget.Store(0)
		if n = left; n <= 0 {
			return
		}
	}
	for i := int64(0); i < n; i++ {
		em.EmitWithID("", hopPayload, nil)
	}
	s.frames.Add(1)
}
func (s *hopSpout) Ack(any)  {}
func (s *hopSpout) Fail(any) {}

type hopSink struct{ seen *atomic.Int64 }

func (hopSink) Prepare(*engine.Context)               {}
func (s hopSink) Execute(tuple.Tuple, engine.Emitter) { s.seen.Add(1) }

// countingListener counts the bytes read off the connections it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// BenchmarkWireHop measures one inter-process hop end to end, both halves
// in this process: a spout's remote delivery (encode into its frame) →
// peerSet → loopback TCP → handleData → Ingest → the sink bolt's queue and
// decode. One op is one tuple; frames carry 1, 16 or 256 of them. Beside
// ns/op it reports the bytes on the wire per tuple and the allocations per
// FRAME — everything allocated during the run less what DecodeValues
// allocates per tuple for this payload (measured below), divided by the
// frames sent. ci.sh gates allocs/frame: it must stay small and must not
// depend on the tuples per frame.
func BenchmarkWireHop(b *testing.B) {
	enc, _ := live.EncodeValues(hopPayload)
	decodeAllocs := testing.AllocsPerRun(100, func() { live.DecodeValues(enc, nil) })
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("tuples=%d", k), func(b *testing.B) { benchWireHop(b, k, decodeAllocs) })
	}
}

func benchWireHop(b *testing.B, k int, decodeAllocs float64) {
	tb := topology.NewBuilder("hop", 2)
	tb.Spout("src", 1).Output("", "word", "count")
	tb.Bolt("sink", 1).Shuffle("src")
	top, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.Uniform(2, 2, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	slots := cl.Slots()
	assign := cluster.NewAssignment(0)
	assign.Assign(topology.ExecutorID{Topology: "hop", Component: "src", Index: 0}, slots[0])
	assign.Assign(topology.ExecutorID{Topology: "hop", Component: "sink", Index: 0}, slots[1])

	var budget, frames, wireBytes, seen atomic.Int64
	var engs [2]*live.Engine
	var peers [2]*peerSet
	for i := range engs {
		peers[i] = newPeerSet(0)
		engs[i], err = live.NewEngine(live.Config{
			Seed: 1, InterNodeCopies: 0, WireCost: -1,
			LocalSlots: []cluster.SlotID{slots[i]}, Remote: peers[i],
		}, cl)
		if err != nil {
			b.Fatal(err)
		}
		app := &engine.App{
			Topology: top,
			Spouts: map[string]func() engine.Spout{"src": func() engine.Spout {
				return &hopSpout{k: k, budget: &budget, frames: &frames}
			}},
			Bolts: map[string]func() engine.Bolt{"sink": func() engine.Bolt { return hopSink{&seen} }},
		}
		if err := engs[i].Submit(app, assign); err != nil {
			b.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	recv := &worker{slot: slots[1], baseLog: logx.New(io.Discard, logx.Off), peers: peers[1], eng: engs[1],
		dataLn: countingListener{ln, &wireBytes}}
	recv.logv.Store(recv.baseLog)
	peers[0].update([]peerEntry{{Slot: slots[1], Addr: ln.Addr().String()}})
	for _, eng := range engs {
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
	}
	go recv.serveData()
	defer func() {
		for i := range engs {
			engs[i].Stop()
			peers[i].closeAll()
		}
		ln.Close()
	}()
	run := func(n int64) {
		target := seen.Load() + n
		budget.Store(n)
		for seen.Load() < target {
			time.Sleep(100 * time.Microsecond)
		}
	}
	run(int64(512 * k)) // dial, fill the queue once: pools and frame buffers warm

	// The collector is held off for the timed stretch: each cycle empties
	// part of the sync.Pools, and since the cycles are paid for by the
	// per-tuple garbage of DecodeValues, the refills would show up as a
	// per-tuple term in a per-frame figure.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	frames.Store(0)
	wireBytes.Store(0)
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	run(int64(b.N))
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N)
	b.ReportMetric(float64(wireBytes.Load())/n, "wireB/tuple")
	b.ReportMetric(float64(frames.Load())/n, "frames/tuple")
	b.ReportMetric((float64(m1.Mallocs-m0.Mallocs)-n*decodeAllocs)/float64(frames.Load()), "allocs/frame")
}
