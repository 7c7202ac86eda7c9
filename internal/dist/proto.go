// Package dist is the distributed execution backend: real worker OS
// processes on loopback TCP behind the same Wire facade as the simulated
// and in-process live engines.
//
// The process model mirrors Storm's. The driver process hosts a
// Nimbus-style control plane: it publishes assignments through an
// internal/coord wall-clock store and exports them to workers over a
// JSON-lines control connection, spawns one worker process per cluster
// slot (re-executing its own binary, as Storm supervisors launch worker
// JVMs), and supervises them — a kill -9 is detected by process exit and
// answered with an exponential-backoff respawn. Each worker runs the
// unchanged internal/live engine restricted to its own slot
// (Config.LocalSlots): executors placed elsewhere are routing proxies, and
// transfers to them leave as binary frames (the live codec) over
// persistent per-peer TCP connections. Serialization emulation is off in
// workers (InterNodeCopies 0, WireCost < 0): crossing a process boundary
// costs real encode + syscall + TCP work, so the traffic-aware scheduler's
// wins are measured, not modeled.
//
// Migration follows §IV-D across process boundaries: the driver halts
// every spout, polls workers until the fleet is quiescent, bumps the
// assignment generation, publishes the new assignment through the coord
// store (worker sessions watch it and relay), and resumes spouts after the
// smoothing delay. Data frames carry a hop budget; a frame that lands on a
// worker no longer hosting its target is forwarded to the current owner,
// so tuples in flight during the handoff are conserved.
//
// Any binary that constructs a dist Engine must call RunWorkerIfChild
// first thing in main (or TestMain): worker processes are this same binary
// re-executed with TSTORM_DIST_* environment variables.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"tstorm/internal/cluster"
	"tstorm/internal/live"
	"tstorm/internal/topology"
	"tstorm/internal/tracing"
)

// Environment variables marking a process as a spawned worker and telling
// it where to report.
const (
	// EnvControl is the driver's control-listener address. Its presence is
	// what makes RunWorkerIfChild take over the process.
	EnvControl = "TSTORM_DIST_CONTROL"
	// EnvSlotNode and EnvSlotPort name the cluster slot this worker owns.
	EnvSlotNode = "TSTORM_DIST_SLOT_NODE"
	EnvSlotPort = "TSTORM_DIST_SLOT_PORT"
	// EnvLogLevel sets the worker's structured-log threshold
	// (debug|info|warn|error|off, default info). The driver propagates
	// its own level here on spawn.
	EnvLogLevel = "TSTORM_LOG"
)

// Control-message types. The control plane is JSON lines: one msg object
// per line, driver→worker requests carrying an ID answered by a "reply"
// with the same ID; worker→driver traffic (register, heartbeat, window) is
// fire-and-forget.
const (
	msgRegister  = "register"  // worker → driver: slot, data addr, pid
	msgConfig    = "config"    // driver → worker: cluster, engine knobs, submissions, peers (RPC)
	msgPeers     = "peers"     // driver → worker: refreshed slot→addr map
	msgHalt      = "halt"      // driver → worker: halt spouts
	msgResume    = "resume"    // driver → worker: resume spouts
	msgApply     = "apply"     // driver → worker: install published assignment (RPC)
	msgPending   = "pending"   // driver → worker: report in-flight tuples + unsent frames (RPC)
	msgTotals    = "totals"    // driver → worker: report counters + audits (RPC)
	msgMonitor   = "monitor"   // driver → worker: change the monitor period
	msgReplay    = "replay"    // driver → worker: fail (replay) every outstanding root now
	msgStop      = "stop"      // driver → worker: exit cleanly
	msgHeartbeat = "heartbeat" // worker → driver: periodic counters + audits
	msgWindow    = "window"    // worker → driver: one monitor sample window
	msgForget    = "forget"    // worker → driver: drop a topology's load rows
	msgReply     = "reply"     // worker → driver: RPC response
)

// msg is the kitchen-sink control-plane message; Type selects which
// fields matter.
type msg struct {
	Type string `json:"type"`
	ID   int64  `json:"id,omitempty"`

	// register
	Slot     cluster.SlotID `json:"slot"`
	DataAddr string         `json:"data_addr,omitempty"`
	PID      int            `json:"pid,omitempty"`

	// config
	Nodes  []cluster.Node `json:"nodes,omitempty"`
	Engine *engineSpec    `json:"engine,omitempty"`
	Subs   []submission   `json:"subs,omitempty"`
	Peers  []peerEntry    `json:"peers,omitempty"`
	Gen    uint32         `json:"gen,omitempty"`

	// apply / monitor
	Topology   string              `json:"topology,omitempty"`
	Assignment *cluster.Assignment `json:"assignment,omitempty"`
	PeriodNs   int64               `json:"period_ns,omitempty"`

	// replies and telemetry pushes
	OK      bool   `json:"ok,omitempty"`
	Err     string `json:"err,omitempty"`
	Moved   int    `json:"moved,omitempty"`
	Pending int64  `json:"pending,omitempty"`
	// DroppedTuples is the worker's lifetime count of tuples in data-plane
	// frames that never reached a peer (peerSet.dropped).
	DroppedTuples int64        `json:"dropped_tuples,omitempty"`
	Totals        *live.Totals `json:"totals,omitempty"`
	Audits        []auditEntry `json:"audits,omitempty"`
	Loads         []loadEntry  `json:"loads,omitempty"`
	Flows         []flowEntry  `json:"flows,omitempty"`
	Forget        string       `json:"forget,omitempty"`
	// Spans ships sampled tuple-tracing spans drained from the worker's
	// executor rings with each heartbeat; the driver's collector assembles
	// them into tuple trees (internal/tracing).
	Spans []tracing.Span `json:"spans,omitempty"`
}

// engineSpec is the worker-engine configuration the driver ships in the
// config message.
type engineSpec struct {
	Seed          uint64 `json:"seed"`
	AckTimeoutNs  int64  `json:"ack_timeout_ns"`
	MaxHops       int    `json:"max_hops"`
	HeartbeatNs   int64  `json:"heartbeat_ns"`
	MonitorNs     int64  `json:"monitor_ns"`
	TraceSampling int    `json:"trace_sampling,omitempty"`
}

// submission is one topology the worker must build and submit. Workload
// names resolve through the registry (registry.go) in the worker process,
// so user code never crosses the wire — only its name and parameters.
type submission struct {
	Workload   string              `json:"workload"`
	Params     json.RawMessage     `json:"params,omitempty"`
	Assignment *cluster.Assignment `json:"assignment"`
}

// peerEntry maps one slot to its owner's data-plane address.
type peerEntry struct {
	Slot cluster.SlotID `json:"slot"`
	Addr string         `json:"addr"`
}

// auditEntry carries one topology's at-least-once conservation gauges
// (workloads that register an AuditFn only).
type auditEntry struct {
	Topology    string `json:"topology"`
	Acked       int    `json:"acked"`
	Outstanding int    `json:"outstanding"`
	Restarts    int    `json:"restarts"`
}

// loadEntry and flowEntry are the wire form of one monitor window (maps
// with struct keys do not survive JSON).
type loadEntry struct {
	Exec topology.ExecutorID `json:"exec"`
	MHz  float64             `json:"mhz"`
}

type flowEntry struct {
	From topology.ExecutorID `json:"from"`
	To   topology.ExecutorID `json:"to"`
	Rate float64             `json:"rate"`
}

// maxControlLine bounds one control-plane message: far above the largest
// heartbeat (span batches, monitor windows) or config a fleet sends, and
// small enough that a peer writing an endless line cannot make the
// receiver buffer without limit.
const maxControlLine = 32 << 20

// errLineTooLong fails a connection whose peer sent a control line longer
// than maxControlLine.
var errLineTooLong = fmt.Errorf("dist: control line exceeds %d bytes", maxControlLine)

// lineConn frames JSON messages over a TCP connection, one per line.
// Sends are serialized; receives belong to a single reader goroutine.
type lineConn struct {
	c    net.Conn
	r    *bufio.Reader
	line []byte // the line being read, reused across receives
	wmu  sync.Mutex
}

func newLineConn(c net.Conn) *lineConn {
	return &lineConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}
}

func (l *lineConn) send(m *msg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	l.wmu.Lock()
	defer l.wmu.Unlock()
	_, err = l.c.Write(data)
	return err
}

// recv reads and decodes one line. A line past maxControlLine fails with
// errLineTooLong after at most that many bytes are buffered.
func (l *lineConn) recv() (*msg, error) {
	l.line = l.line[:0]
	for {
		frag, err := l.r.ReadSlice('\n')
		if len(l.line)+len(frag) > maxControlLine {
			return nil, errLineTooLong
		}
		l.line = append(l.line, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			if err == io.EOF && len(l.line) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	var m msg
	if err := json.Unmarshal(l.line, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (l *lineConn) close() error { return l.c.Close() }

// slotEnvString renders a slot for the child environment.
func slotEnvString(s cluster.SlotID) (node, port string) {
	return string(s.Node), fmt.Sprintf("%d", s.Port)
}
