package live

import (
	"fmt"
	"sync"
	"time"

	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tuple"
)

// RestartRecord documents one supervised restart: which executor came
// back, its 1-based attempt number, the backoff the schedule imposed
// before this attempt, and the wait actually observed (crash → restart;
// always ≥ Backoff, plus scan-period jitter). Tests assert the schedule
// is genuinely exponential from these records, not merely that restarts
// happened.
type RestartRecord struct {
	Executor topology.ExecutorID
	Attempt  int
	Backoff  time.Duration
	Waited   time.Duration
}

// Supervisor restart pacing: a freshly crashed executor waits BackoffBase,
// doubling per consecutive restart up to BackoffCap — Storm's supervisor
// keeps relaunching a crashing worker, but ever more slowly.
const (
	DefaultSupervisorPeriod = 50 * time.Millisecond
	DefaultBackoffBase      = 100 * time.Millisecond
	DefaultBackoffCap       = 10 * time.Second
)

// Supervisor scans for dead executors and restarts them with fresh
// user-code instances — the live analogue of a Storm supervisor daemon
// relaunching crashed worker JVMs. Executors whose current slot sits on a
// down node are left dead: the scheduling layer must first move them (the
// monitor hides the node and the generator fences it, so Algorithm 1's
// next schedule does), or RecoverNode must bring the node back.
type Supervisor struct {
	eng *Engine

	// histMu guards history, the append-only restart log.
	histMu  sync.Mutex
	history []RestartRecord

	tick *ticker
}

// StartSupervisor launches the restart scan loop. period <= 0 uses the
// default 50 ms scan cadence.
func StartSupervisor(eng *Engine, period time.Duration) *Supervisor {
	if period <= 0 {
		period = DefaultSupervisorPeriod
	}
	s := &Supervisor{eng: eng}
	s.tick = startTicker(eng.stopCh, period, func() { s.Scan() })
	return s
}

// Stop halts the supervisor and waits for its goroutine to exit. Safe to
// call repeatedly.
func (s *Supervisor) Stop() { s.tick.stop() }

// History returns a copy of the restart log in restart order.
func (s *Supervisor) History() []RestartRecord {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return append([]RestartRecord(nil), s.history...)
}

// Backoff returns the wait before restart number n (0-based): base,
// doubling per restart up to limit. The supervisor paces executor
// restarts with the defaults; the distributed supervisor paces process
// respawns with its configured pair.
func Backoff(base, limit time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// Scan restarts every dead executor whose backoff elapsed and whose node
// is up. It returns how many were restarted this pass (benchmarks and
// tests call it directly for deterministic recovery).
func (s *Supervisor) Scan() int {
	eng := s.eng
	if eng.stopped.Load() {
		return 0
	}
	now := time.Now()
	var due []*liveExec
	eng.mu.RLock()
	for _, le := range eng.execs {
		if le.state != stateDead {
			continue
		}
		if eng.downNodes[eng.placement[le.id].Node] {
			continue
		}
		if now.Sub(le.crashedAt) < Backoff(DefaultBackoffBase, DefaultBackoffCap, le.restarts) {
			continue
		}
		due = append(due, le)
	}
	eng.mu.RUnlock()
	n := 0
	for _, le := range due {
		if s.restartExec(le) {
			n++
		}
	}
	return n
}

// restartExec brings one dead executor back as a fresh incarnation:
// drainer stopped, fresh user-code instance opened (state loss, as in
// Storm), spout-side reliability state reset, new die/gone channels, new
// goroutine. It reports whether a restart happened (false if the executor
// was not dead anymore or the engine is stopping).
func (s *Supervisor) restartExec(le *liveExec) bool {
	eng := s.eng
	eng.mu.Lock()
	if le.state != stateDead || eng.stopped.Load() {
		eng.mu.Unlock()
		return false
	}
	// Claim the executor so a concurrent caller cannot double-restart.
	le.state = stateDying
	drainStop, drainDone := le.drainStop, le.drainDone
	rec := RestartRecord{
		Executor: le.id,
		Attempt:  le.restarts + 1,
		Backoff:  Backoff(DefaultBackoffBase, DefaultBackoffCap, le.restarts),
		Waited:   time.Since(le.crashedAt),
	}
	eng.mu.Unlock()

	// Stop the drainer and wait it out: the queue must never see two
	// consumers, and the new incarnation is the next one.
	if drainStop != nil {
		close(drainStop)
		<-drainDone
	}

	// Fresh user-code instances — executor state does not survive a crash,
	// exactly as in Storm. (Factories run outside eng.mu so user code can
	// never deadlock against engine internals.)
	var (
		spout = le.spout
		bolt  = le.bolt
	)
	switch le.kind {
	case spoutExec:
		spout = le.app.Spouts[le.id.Component]()
		spout.Open(le.ctx)
	case boltExec:
		bolt = le.app.Bolts[le.id.Component]()
		bolt.Prepare(le.ctx)
	}

	eng.mu.Lock()
	le.spout, le.bolt = spout, bolt
	if le.kind == spoutExec && le.anchored {
		// The previous incarnation's in-flight roots are gone; replays of
		// their msgIDs arrive as brand-new roots. Stale completion events
		// for old roots are discarded by the drain (unknown root).
		le.pendingRoots = make(map[tuple.ID]*livePendingRoot)
		le.firstEmit = make(map[any]time.Time)
		le.outstanding = 0
		le.ackMu.Lock()
		le.ackEvents = nil
		le.ackMu.Unlock()
	}
	le.die = make(chan struct{})
	le.gone = make(chan struct{})
	le.drainStop, le.drainDone = nil, nil
	le.restarts++
	le.crashedAt = time.Time{}
	le.state = stateAlive
	le.dead.Store(false)
	eng.wg.Add(1)
	go le.run(le.die, le.gone)
	eng.mu.Unlock()

	s.histMu.Lock()
	s.history = append(s.history, rec)
	s.histMu.Unlock()
	eng.workerRestarts.Add(1)
	eng.emit(trace.WorkerRestarted, le.id.Topology, "",
		fmt.Sprintf("%s restarted (attempt %d)", le.id, le.restarts))
	return true
}
