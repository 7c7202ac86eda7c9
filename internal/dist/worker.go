package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/logx"
	"tstorm/internal/topology"
)

// RunWorkerIfChild turns the current process into a distributed worker if
// it was spawned by a dist driver (detected by TSTORM_DIST_CONTROL in the
// environment) and never returns in that case. Call it first thing in
// main() — and in TestMain for any test binary that constructs a dist
// Engine — since workers are this same binary re-executed.
func RunWorkerIfChild() {
	addr := os.Getenv(EnvControl)
	if addr == "" {
		return
	}
	os.Exit(workerMain(addr))
}

// worker is the state of one spawned worker process: a live engine
// restricted to its slot, peers for the data plane, and the control
// connection back to the driver.
type worker struct {
	slot cluster.SlotID
	ctrl *lineConn
	// baseLog carries the worker= field; logv holds the current logger
	// (baseLog plus a gen= field once a generation is known) — an atomic
	// pointer because the data-plane, control, and heartbeat goroutines
	// all log.
	baseLog *logx.Logger
	logv    atomic.Pointer[logx.Logger]

	dataLn net.Listener
	peers  *peerSet

	eng    *live.Engine
	mon    *live.Monitor
	audits map[string]AuditFn
	spec   engineSpec

	// forwardDrops counts frames for a migrated executor whose hop budget
	// ran out before they reached its current owner.
	forwardDrops atomic.Int64
}

func workerMain(ctrlAddr string) int {
	base := logx.New(os.Stderr, logx.ParseLevel(os.Getenv(EnvLogLevel)))
	port, err := strconv.Atoi(os.Getenv(EnvSlotPort))
	if err != nil {
		base.Errorf("bad %s: %v", EnvSlotPort, err)
		return 2
	}
	slot := cluster.SlotID{Node: cluster.NodeID(os.Getenv(EnvSlotNode)), Port: port}
	w := &worker{
		slot:    slot,
		baseLog: base.With("worker", slot.String()),
		audits:  make(map[string]AuditFn),
	}
	w.logv.Store(w.baseLog)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.log().Errorf("data listen: %v", err)
		return 2
	}
	defer ln.Close()
	w.dataLn = ln

	// The driver just spawned us, so its listener is up; retry briefly to
	// ride out scheduler hiccups, then give up and let the supervisor
	// respawn us with backoff.
	var ctrl net.Conn
	for attempt := 0; ; attempt++ {
		ctrl, err = net.DialTimeout("tcp", ctrlAddr, dialTimeout)
		if err == nil {
			break
		}
		if attempt >= 9 {
			w.log().Errorf("control dial %s: %v", ctrlAddr, err)
			return 2
		}
		time.Sleep(100 * time.Millisecond)
	}
	w.ctrl = newLineConn(ctrl)
	defer w.ctrl.close()

	if err := w.ctrl.send(&msg{
		Type:     msgRegister,
		Slot:     slot,
		DataAddr: ln.Addr().String(),
		PID:      os.Getpid(),
	}); err != nil {
		w.log().Errorf("register: %v", err)
		return 2
	}

	code := w.controlLoop()
	w.shutdown()
	return code
}

// log returns the current structured logger (worker and generation
// fields bound).
func (w *worker) log() *logx.Logger { return w.logv.Load() }

// setGen rebinds the logger's gen= field when the assignment generation
// advances, so every subsequent line attributes itself to the schedule
// it ran under.
func (w *worker) setGen(gen uint32) {
	w.logv.Store(w.baseLog.With("gen", strconv.FormatUint(uint64(gen), 10)))
}

// controlLoop processes driver messages serially until stop or the
// control connection drops (driver exit — workers never outlive it).
func (w *worker) controlLoop() int {
	for {
		m, err := w.ctrl.recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				w.log().Warnf("control connection lost: %v", err)
			}
			return 0
		}
		switch m.Type {
		case msgConfig:
			err := w.configure(m)
			reply := &msg{Type: msgReply, ID: m.ID, OK: err == nil}
			if err != nil {
				reply.Err = err.Error()
				w.log().Errorf("configure: %v", err)
			}
			w.ctrl.send(reply)
		case msgPeers:
			w.peersUpdate(m)
		case msgHalt:
			if w.eng != nil {
				w.eng.HaltSpouts()
			}
		case msgResume:
			if w.eng != nil {
				w.eng.ResumeSpouts()
			}
		case msgApply:
			reply := &msg{Type: msgReply, ID: m.ID}
			if w.eng == nil {
				reply.Err = "apply before config"
			} else if m.Assignment == nil {
				reply.Err = "apply without assignment"
			} else {
				moved, err := w.eng.ApplyAssignment(m.Topology, m.Assignment)
				reply.Moved = moved
				reply.OK = err == nil
				if err != nil {
					reply.Err = err.Error()
				}
				w.setGen(m.Gen)
			}
			w.ctrl.send(reply)
		case msgPending:
			w.ctrl.send(&msg{Type: msgReply, ID: m.ID, OK: true, Pending: w.pending()})
		case msgTotals:
			w.ctrl.send(w.statusMsg(msgReply, m.ID))
		case msgReplay:
			if w.eng != nil {
				w.eng.FailPending()
			}
		case msgMonitor:
			// Start a monitor lazily if the worker was configured without
			// one (the facade turns monitoring on after the fleet is up).
			if w.eng != nil && m.PeriodNs > 0 {
				if w.mon != nil {
					w.mon.Stop()
				}
				w.mon = live.StartMonitor(w.eng, upstreamSink{w}, time.Duration(m.PeriodNs))
			}
		case msgStop:
			w.ctrl.send(&msg{Type: msgReply, ID: m.ID, OK: true})
			return 0
		default:
			w.log().Warnf("unknown control message %q", m.Type)
		}
	}
}

// configure builds the cluster and every submitted topology, starts the
// engine (spouts halted — the driver resumes the fleet once every worker
// is ready), and begins serving the data plane.
func (w *worker) configure(m *msg) error {
	if w.eng != nil {
		return fmt.Errorf("already configured")
	}
	if m.Engine == nil {
		return fmt.Errorf("config without engine spec")
	}
	cl, err := cluster.New(m.Nodes)
	if err != nil {
		return err
	}
	w.spec = *m.Engine
	w.peers = newPeerSet(w.spec.MaxHops)
	w.peersUpdate(m)

	eng, err := live.NewEngine(live.Config{
		Seed:       w.spec.Seed,
		AckTimeout: time.Duration(w.spec.AckTimeoutNs),
		// Emulation off: a process hop costs real codec + TCP work, and
		// a same-process hop costs a channel send — measured, not modeled.
		InterNodeCopies: 0,
		WireCost:        -1,
		LocalSlots:      []cluster.SlotID{w.slot},
		Remote:          w.peers,
		// LocalSlots is set, so the engine records spans but creates no
		// collector: this worker exports them to the driver (heartbeatLoop).
		TraceSampling: w.spec.TraceSampling,
	}, cl)
	if err != nil {
		return err
	}
	w.peers.onShed = eng.Shed
	for _, sub := range m.Subs {
		built, err := buildWorkload(sub.Workload, sub.Params)
		if err != nil {
			return err
		}
		if err := eng.Submit(built.App, sub.Assignment); err != nil {
			return err
		}
		w.audits[built.App.Topology.Name()] = built.Audit
	}
	// Start halted: no roots flow until the driver has the whole fleet
	// registered and broadcasts resume.
	eng.HaltSpouts()
	if err := eng.Start(); err != nil {
		return err
	}
	w.eng = eng
	if w.spec.MonitorNs > 0 {
		w.mon = live.StartMonitor(eng, upstreamSink{w}, time.Duration(w.spec.MonitorNs))
	}
	go w.serveData()
	go w.heartbeatLoop()
	return nil
}

func (w *worker) peersUpdate(m *msg) {
	if w.peers == nil {
		return
	}
	w.peers.update(m.Peers)
	if m.Gen != 0 {
		w.setGen(m.Gen)
	}
}

// pending is what this worker still owes the fleet's quiescence: tuples
// queued or in process in the engine, plus frames its peer writers have
// accepted but not yet handed to the kernel. The engine is read first —
// work moves from it into the writers' queues, never back.
func (w *worker) pending() int64 {
	if w.eng == nil {
		return 0
	}
	return w.eng.Pending() + w.peers.inFlight.Load()
}

// statusMsg assembles a totals/heartbeat message.
func (w *worker) statusMsg(typ string, id int64) *msg {
	out := &msg{Type: typ, ID: id, OK: true, Slot: w.slot}
	if w.eng == nil {
		return out
	}
	t := w.eng.Totals()
	out.Totals = &t
	out.Pending = w.pending()
	out.DroppedTuples = w.peers.dropped.Load()
	names := make([]string, 0, len(w.audits))
	for name, fn := range w.audits {
		if fn != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		acked, outstanding, restarts := w.audits[name]()
		out.Audits = append(out.Audits, auditEntry{
			Topology: name, Acked: acked, Outstanding: outstanding, Restarts: restarts,
		})
	}
	return out
}

func (w *worker) heartbeatLoop() {
	period := time.Duration(w.spec.HeartbeatNs)
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	tk := time.NewTicker(period)
	defer tk.Stop()
	for {
		select {
		case <-w.eng.Done():
			return
		case <-tk.C:
		case <-w.eng.SpansReady():
			// A span ring is half full: beat now rather than drop what
			// the rest of the period would add.
		}
		hb := w.statusMsg(msgHeartbeat, 0)
		// Drain span rings here and only here: heartbeatLoop is the span
		// rings' single consumer (statusMsg itself must stay drain-free —
		// the totals RPC runs it on the control goroutine).
		hb.Spans = w.eng.DrainSpans()
		if err := w.ctrl.send(hb); err != nil {
			return
		}
	}
}

// serveData accepts peer connections on the data listener.
func (w *worker) serveData() {
	for {
		c, err := w.dataLn.Accept()
		if err != nil {
			return
		}
		go w.handleData(c)
	}
}

// handleData drains frames off one peer connection into the engine,
// straight out of the connection's read buffer (Ingest and the forwarding
// send only borrow them). A frame whose target migrated away is forwarded
// to the current owner while its hop budget lasts; a frame that fails to
// decode closes the connection — malformed input from a peer is a
// protocol breach, and the peer's redial starts a clean stream.
func (w *worker) handleData(c net.Conn) {
	defer c.Close()
	r := newWireReader(c)
	for {
		hops, frame, err := r.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				w.log().Warnf("data connection from %s dropped: %v", c.RemoteAddr(), err)
			}
			return
		}
		if err := w.handleFrame(hops, frame); err != nil {
			w.log().Errorf("malformed frame from %s: %v — closing connection", c.RemoteAddr(), err)
			return
		}
	}
}

// handleFrame processes one decoded wire frame: ingest, and
// mid-migration forwarding. A frame emitted under the previous schedule
// (§IV-D) is ingested like any other. A non-nil error means the frame was
// malformed and the connection should drop.
func (w *worker) handleFrame(hops byte, frame []byte) error {
	if err := w.eng.Ingest(frame); err != nil {
		var nl *live.NotLocalError
		if errors.As(err, &nl) {
			// Mid-migration race: we no longer (or never did) host the
			// target. Chase the current owner.
			if hops == 0 || !w.peers.send(nl.Slot, frame, hops-1) {
				w.forwardDrops.Add(1)
				w.log().Warnf("frame for %s undeliverable (hops exhausted)", nl.Slot)
			}
			return nil
		}
		return err
	}
	return nil
}

func (w *worker) shutdown() {
	if w.mon != nil {
		w.mon.Stop()
	}
	if w.eng != nil {
		w.eng.Stop()
	}
	if w.peers != nil {
		w.peers.closeAll()
	}
	w.dataLn.Close()
	if n := w.forwardDrops.Load(); n > 0 {
		w.log().Warnf("%d frames dropped with hops exhausted", n)
	}
}

// upstreamSink ships monitor windows over the control connection into the
// driver's load database: the distributed half of §IV-B, where each
// worker's monitor reports its slice of the traffic matrix upward.
type upstreamSink struct{ w *worker }

func (s upstreamSink) ApplyWindow(loads map[topology.ExecutorID]float64, flows map[loaddb.FlowKey]float64) {
	m := &msg{Type: msgWindow, Slot: s.w.slot}
	for exec, mhz := range loads {
		m.Loads = append(m.Loads, loadEntry{Exec: exec, MHz: mhz})
	}
	for key, rate := range flows {
		m.Flows = append(m.Flows, flowEntry{From: key.From, To: key.To, Rate: rate})
	}
	sort.Slice(m.Loads, func(i, j int) bool { return m.Loads[i].Exec.Less(m.Loads[j].Exec) })
	sort.Slice(m.Flows, func(i, j int) bool {
		if m.Flows[i].From != m.Flows[j].From {
			return m.Flows[i].From.Less(m.Flows[j].From)
		}
		return m.Flows[i].To.Less(m.Flows[j].To)
	})
	s.w.ctrl.send(m)
}

func (s upstreamSink) Forget(topo string) {
	s.w.ctrl.send(&msg{Type: msgForget, Forget: topo})
}
