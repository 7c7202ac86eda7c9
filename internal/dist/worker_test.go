package dist

// Internal unit tests for the worker's frame-handling path. These build
// two single-slot live engines by hand (no workloads import — that would
// cycle) and drive handleFrame directly: a traced frame (frameDataT) must
// be delivered exactly like a plain data frame — the tracing extension
// does not change §IV-D's forwarding.

import (
	"io"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/logx"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// captureSink records every frame an engine ships to remote slots.
type captureSink struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *captureSink) Send(to cluster.SlotID, frame []byte) bool {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), frame...))
	c.mu.Unlock()
	return true
}

func (c *captureSink) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.frames
	c.frames = nil
	return out
}

type staleTestSpout struct{ emitted int }

func (s *staleTestSpout) Open(*engine.Context) {}
func (s *staleTestSpout) NextTuple(emit engine.SpoutEmitter) {
	if s.emitted >= 64 {
		time.Sleep(time.Millisecond)
		return
	}
	s.emitted++
	emit.EmitWithID("", tuple.Values{"w"}, s.emitted)
}
func (s *staleTestSpout) Ack(any)  {}
func (s *staleTestSpout) Fail(any) {}

type staleTestBolt struct{}

func (staleTestBolt) Prepare(*engine.Context)             {}
func (staleTestBolt) Execute(tuple.Tuple, engine.Emitter) {}

// staleTestApp is a two-component anchored chain: spout "gen" feeding bolt
// "echo", with one acker.
func staleTestApp(t *testing.T) *engine.App {
	t.Helper()
	b := topology.NewBuilder("trace-stale", 2).SetAckers(1)
	b.Spout("gen", 1).Output("", "word")
	b.Bolt("echo", 1).Shuffle("gen")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"gen": func() engine.Spout { return &staleTestSpout{} }},
		Bolts:    map[string]func() engine.Bolt{"echo": func() engine.Bolt { return staleTestBolt{} }},
	}
}

func staleTestEngine(t *testing.T, cl *cluster.Cluster, app *engine.App, a *cluster.Assignment, local cluster.SlotID, sink live.RemoteSink) *live.Engine {
	t.Helper()
	eng, err := live.NewEngine(live.Config{
		Seed:            7,
		InterNodeCopies: 0,
		WireCost:        -1,
		LocalSlots:      []cluster.SlotID{local},
		Remote:          sink,
		TraceSampling:   1, // sample everything: every frame to echo is traced
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, a); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng
}

func TestTracedFrameDelivered(t *testing.T) {
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots := cl.Slots()
	spoutSlot, boltSlot := slots[0], slots[1]
	a := cluster.NewAssignment(0)
	a.Assign(topology.ExecutorID{Topology: "trace-stale", Component: "gen", Index: 0}, spoutSlot)
	a.Assign(topology.ExecutorID{Topology: "trace-stale", Component: topology.AckerComponent, Index: 0}, spoutSlot)
	a.Assign(topology.ExecutorID{Topology: "trace-stale", Component: "echo", Index: 0}, boltSlot)

	// Sender engine: hosts the spout; every transfer to echo leaves as a
	// traced frame through the capture sink.
	capture := &captureSink{}
	sender := staleTestEngine(t, cl, staleTestApp(t), a, spoutSlot, capture)
	var frames [][]byte
	deadline := time.Now().Add(10 * time.Second)
	for len(frames) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		frames = capture.take()
	}
	if len(frames) == 0 {
		t.Fatal("sender engine produced no remote frames")
	}
	sender.Stop()

	// Receiver worker: hosts the bolt.
	recv := staleTestEngine(t, cl, staleTestApp(t), a, boltSlot, &captureSink{})
	w := &worker{
		slot:    boltSlot,
		baseLog: logx.New(io.Discard, logx.Off),
		peers:   newPeerSet(3),
		eng:     recv,
	}
	w.logv.Store(w.baseLog)

	before := recv.Totals().Processed
	if err := w.handleFrame(3, frames[0]); err != nil {
		t.Fatalf("traced frame rejected: %v", err)
	}
	if len(frames) > 1 {
		if err := w.handleFrame(3, frames[1]); err != nil {
			t.Fatalf("second traced frame rejected: %v", err)
		}
	}
	// The frame was not dropped: the bolt processes it.
	deadline = time.Now().Add(10 * time.Second)
	for recv.Totals().Processed == before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if recv.Totals().Processed == before {
		t.Fatal("traced frame was never delivered to the bolt")
	}
}
