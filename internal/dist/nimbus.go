package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/coord"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// The Nimbus-style control plane. The driver listens on loopback; every
// worker dials in, registers its slot, and gets a session. Assignments
// are the one piece of cluster state that flows through the coord store
// (the ZooKeeper stand-in): Apply publishes the new assignment under
// /assignments/<topology>, and each live session's persistent watcher
// relays it to its worker over the control connection — Storm's workers
// learning their schedule from ZooKeeper, with the store's watch
// semantics doing the fan-out.

// assignmentRecord is the JSON payload published to the coord store.
type assignmentRecord struct {
	Gen        uint32              `json:"gen"`
	Topology   string              `json:"topology"`
	Assignment *cluster.Assignment `json:"assignment"`
}

func assignmentPath(topo string) string { return "/assignments/" + topo }

// session is the driver's half of one worker's control connection.
type session struct {
	e    *Engine
	h    *workerHandle
	conn *lineConn

	mu      sync.Mutex
	nextID  int64
	calls   map[int64]chan *msg
	lastGen uint32 // newest generation relayed (or shipped in config)

	watches []*coord.Watch
	done    chan struct{}
}

func newSession(e *Engine, h *workerHandle, conn *lineConn) *session {
	return &session{
		e:     e,
		h:     h,
		conn:  conn,
		calls: make(map[int64]chan *msg),
		done:  make(chan struct{}),
	}
}

// rpc sends a request with a correlation ID and waits for the worker's
// reply (or session death, or timeout).
func (s *session) rpc(m *msg, timeout time.Duration) (*msg, error) {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	ch := make(chan *msg, 1)
	s.calls[id] = ch
	s.mu.Unlock()
	m.ID = id
	defer func() {
		s.mu.Lock()
		delete(s.calls, id)
		s.mu.Unlock()
	}()
	if err := s.conn.send(m); err != nil {
		return nil, err
	}
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return reply, errors.New(reply.Err)
		}
		return reply, nil
	case <-s.done:
		return nil, fmt.Errorf("dist: worker %s session closed", s.h.slot)
	case <-tm.C:
		return nil, fmt.Errorf("dist: worker %s rpc %q timed out", s.h.slot, m.Type)
	}
}

// notify sends a fire-and-forget control message.
func (s *session) notify(m *msg) { s.conn.send(m) }

// readLoop dispatches worker messages until the connection drops.
func (s *session) readLoop() {
	defer s.close()
	for {
		m, err := s.conn.recv()
		if err != nil {
			return
		}
		switch m.Type {
		case msgReply:
			s.mu.Lock()
			ch := s.calls[m.ID]
			s.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case msgHeartbeat:
			s.storeStatus(m)
			s.e.ingestSpans(m.Spans)
		case msgWindow:
			s.e.applyWindow(m)
		case msgForget:
			s.e.forgetTopology(m.Forget)
		default:
			// Unknown worker chatter is ignored: the control plane must
			// survive version skew in either direction.
		}
	}
}

// close tears the session down: watchers cancelled, pending RPCs failed,
// handle detached.
func (s *session) close() {
	s.mu.Lock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	watches := s.watches
	s.watches = nil
	s.mu.Unlock()
	for _, w := range watches {
		w.Cancel()
	}
	s.conn.close()
	s.h.detachSession(s)
	s.e.sessionGone()
}

// watchAssignments registers this session's persistent coord-store
// watchers, one per topology. Fired events relay the newest published
// record to the worker.
func (s *session) watchAssignments() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return
	default:
	}
	for _, name := range s.e.Topologies() {
		name := name
		w := s.e.store.WatchData(assignmentPath(name), func() {
			s.relayAssignment(name)
		})
		s.watches = append(s.watches, w)
	}
}

// relayAssignment reads the current published record for one topology and,
// if this session has not shipped that generation yet, sends the apply RPC
// to the worker and reports the outcome into the pending apply round.
func (s *session) relayAssignment(name string) {
	data, _, err := s.e.store.Get(assignmentPath(name))
	if err != nil {
		return
	}
	var rec assignmentRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return
	}
	s.mu.Lock()
	if rec.Gen <= s.lastGen {
		s.mu.Unlock()
		return
	}
	s.lastGen = rec.Gen
	s.mu.Unlock()

	reply, err := s.rpc(&msg{
		Type:       msgApply,
		Topology:   rec.Topology,
		Assignment: rec.Assignment,
		Gen:        rec.Gen,
	}, s.e.cfg.ApplyTimeout)
	moved := 0
	if reply != nil {
		moved = reply.Moved
	}
	s.e.reportApply(rec.Gen, s.h.slot, moved, err)
}

// serveControl accepts worker control connections until the listener
// closes.
func (e *Engine) serveControl() {
	defer e.wg.Done()
	for {
		c, err := e.ctrlLn.Accept()
		if err != nil {
			return
		}
		go e.handshake(newLineConn(c))
	}
}

// handshake consumes a connection's register message, attaches a session
// to the slot's handle, and — when the fleet is already configured (this
// is a supervisor respawn) — configures the newcomer immediately.
func (e *Engine) handshake(conn *lineConn) {
	m, err := conn.recv()
	if err != nil || m.Type != msgRegister {
		conn.close()
		return
	}
	e.mu.Lock()
	h, ok := e.handles[m.Slot]
	configured := e.configured
	e.mu.Unlock()
	if !ok || e.stopped.Load() {
		conn.close()
		return
	}
	s := newSession(e, h, conn)
	h.attachSession(s, m.DataAddr, m.PID)
	go s.readLoop()
	if configured {
		go e.configureRespawn(s)
	} else {
		// Initial bring-up: Start's barrier configures the fleet once every
		// slot has registered.
		select {
		case e.regCh <- struct{}{}:
		default:
		}
	}
}

// configureWorker ships the full config to one session and waits for the
// worker's ready reply.
func (e *Engine) configureWorker(s *session) error {
	cfg := e.buildConfigMsg()
	s.mu.Lock()
	s.lastGen = cfg.Gen
	s.mu.Unlock()
	if _, err := s.rpc(cfg, e.cfg.ReadyTimeout); err != nil {
		return err
	}
	s.watchAssignments()
	return nil
}

// configureRespawn brings a respawned worker back into a running fleet:
// full config (current assignments and generation), fresh peer map for
// everyone (its data address changed), a resume if spouts are live, and
// then a replay request to every worker. The roots in flight through the
// dead process are lost, and they fill the spouts' pending caps: waiting
// out their ack timeouts would stall every spout for that long. Each
// worker handles the peer map before the replay request (one ordered
// control connection), so the replays take the new routes.
func (e *Engine) configureRespawn(s *session) {
	if err := e.configureWorker(s); err != nil {
		e.emitTrace(trace.WorkerCrashed, "", s.h.slot.String(),
			fmt.Sprintf("respawn config failed: %v", err))
		s.conn.close()
		return
	}
	e.broadcastPeers()
	e.mu.Lock()
	resumed := e.configured && !e.spoutsHalted
	e.mu.Unlock()
	if resumed {
		s.notify(&msg{Type: msgResume})
	}
	for _, ls := range e.liveSessions() {
		ls.notify(&msg{Type: msgReplay})
	}
	e.emitTrace(trace.WorkerRejoined, "", s.h.slot.String(), "respawned worker reconfigured; outstanding roots replayed")
}

// buildConfigMsg assembles the config message from current engine state.
func (e *Engine) buildConfigMsg() *msg {
	e.mu.Lock()
	defer e.mu.Unlock()
	subs := make([]submission, len(e.subs))
	for i, sub := range e.subs {
		cp := sub
		cp.Assignment = e.assign[e.names[i]].Clone()
		subs[i] = cp
	}
	return &msg{
		Type:  msgConfig,
		Nodes: e.cl.Nodes(),
		Engine: &engineSpec{
			Seed:          e.cfg.Seed,
			AckTimeoutNs:  int64(e.cfg.AckTimeout),
			MaxHops:       e.cfg.MaxHops,
			HeartbeatNs:   int64(e.cfg.HeartbeatPeriod),
			MonitorNs:     int64(e.cfg.MonitorPeriod),
			TraceSampling: e.cfg.TraceSampling,
		},
		Subs:  subs,
		Peers: e.peerEntriesLocked(),
		Gen:   e.gen.Load(),
	}
}

// peerEntriesLocked snapshots the slot→data-address map (registered
// workers only). Callers hold e.mu.
func (e *Engine) peerEntriesLocked() []peerEntry {
	var out []peerEntry
	for _, slot := range e.order {
		h := e.handles[slot]
		h.mu.Lock()
		addr := h.dataAddr
		h.mu.Unlock()
		if addr != "" {
			out = append(out, peerEntry{Slot: slot, Addr: addr})
		}
	}
	return out
}

// broadcastPeers pushes the current peer map to every live session.
func (e *Engine) broadcastPeers() {
	e.mu.Lock()
	entries := e.peerEntriesLocked()
	e.mu.Unlock()
	for _, s := range e.liveSessions() {
		s.notify(&msg{Type: msgPeers, Peers: entries})
	}
}

// applyWindow folds one worker's monitor window into the driver-side load
// sink (the unchanged loaddb.DB the scheduler reads).
func (e *Engine) applyWindow(m *msg) {
	sink := e.loadSink()
	if sink == nil {
		return
	}
	loads := make(map[topology.ExecutorID]float64, len(m.Loads))
	for _, l := range m.Loads {
		loads[l.Exec] = l.MHz
	}
	flows := make(map[loaddb.FlowKey]float64, len(m.Flows))
	for _, f := range m.Flows {
		flows[loaddb.FlowKey{From: f.From, To: f.To}] = f.Rate
	}
	if len(loads) == 0 && len(flows) == 0 {
		return
	}
	sink.ApplyWindow(loads, flows)
	e.emitTrace(trace.MonitorSampled, "", m.Slot.String(),
		fmt.Sprintf("window: %d loads, %d flows", len(loads), len(flows)))
}

func (e *Engine) forgetTopology(name string) {
	if name == "" {
		return
	}
	if sink := e.loadSink(); sink != nil {
		sink.Forget(name)
	}
}

// applyRound tracks one published generation's fan-out: every live worker
// must confirm (or the round times out / loses a worker).
type applyRound struct {
	gen  uint32
	mu   sync.Mutex
	want int
	got  int
	// moved is the fleet-wide executor move count; every worker reports
	// the same fleet-wide number, so the max is the consensus value.
	moved    int
	firstErr error
	done     chan struct{}
}

func newApplyRound(gen uint32, want int) *applyRound {
	r := &applyRound{gen: gen, want: want, done: make(chan struct{})}
	if want <= 0 {
		close(r.done)
	}
	return r
}

func (r *applyRound) report(moved int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.got >= r.want {
		return
	}
	r.got++
	if moved > r.moved {
		r.moved = moved
	}
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	if r.got == r.want {
		close(r.done)
	}
}

// dropOne shrinks the quorum when a worker dies mid-round.
func (r *applyRound) dropOne() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.want <= r.got {
		return
	}
	r.want--
	if r.got == r.want {
		close(r.done)
	}
}

// reportApply feeds a session's relay outcome into the current round.
func (e *Engine) reportApply(gen uint32, slot cluster.SlotID, moved int, err error) {
	e.mu.Lock()
	round := e.round
	e.mu.Unlock()
	if round == nil || round.gen != gen {
		return
	}
	if err != nil {
		e.emitTrace(trace.WorkerCrashed, "", slot.String(), fmt.Sprintf("apply gen %d: %v", gen, err))
	}
	round.report(moved, err)
}

// sessionGone notifies the pending apply round that a worker dropped out.
func (e *Engine) sessionGone() {
	e.mu.Lock()
	round := e.round
	e.mu.Unlock()
	if round != nil {
		round.dropOne()
	}
}

// liveSessions snapshots the attached sessions.
func (e *Engine) liveSessions() []*session {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*session
	for _, slot := range e.order {
		if s := e.handles[slot].session(); s != nil {
			out = append(out, s)
		}
	}
	return out
}
