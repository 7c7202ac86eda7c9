// Package acker implements Storm's guaranteed-message-processing state
// machine: every spout tuple registers a root ID with an acker; every
// downstream emit/ack XORs edge IDs into the root's checksum; when the
// checksum returns to zero the tuple tree is fully processed and the
// originating spout is notified. Roots that do not complete within the
// timeout (30 s by default in Storm) are failed and may be replayed.
//
// The Tracker here is the per-acker-executor state machine; the engine
// routes init/ack messages to acker executors and drives timeouts, so
// acker placement generates real network traffic exactly as in Storm.
package acker

import (
	"time"

	"tstorm/internal/sim"
	"tstorm/internal/tuple"
)

// DefaultTimeout is Storm's default message timeout.
const DefaultTimeout = 30 * time.Second

// Completion describes a fully processed tuple tree.
type Completion struct {
	Root tuple.ID
	// SpoutExec is the dense engine index of the originating spout executor.
	SpoutExec int
	// Late reports that the root had already timed out (and been failed)
	// before it finally completed — common under overload, and the reason
	// the paper's "average processing time" can exceed the 30 s timeout.
	Late bool
}

type rootState struct {
	xor       tuple.ID
	spoutExec int
	emitAt    sim.Time
	lastTouch sim.Time
	inited    bool
	failed    bool
}

// Tracker tracks pending tuple trees for one acker executor. It is not
// safe for concurrent use (the simulation is single-threaded).
type Tracker struct {
	pending map[tuple.ID]*rootState
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{pending: make(map[tuple.ID]*rootState)}
}

// Init registers a new root emitted by the given spout executor at emitAt.
// initXor is the XOR of the edge IDs the spout delivered the root tuple
// with (one per receiving task). Init may arrive after the first Ack for
// the same root; state is merged either way — and if every ack already
// arrived (the checksum is zero once merged), Init itself completes the
// tree, exactly as a late-arriving ack would.
func (t *Tracker) Init(root tuple.ID, initXor tuple.ID, spoutExec int, emitAt sim.Time) (Completion, bool) {
	s := t.pending[root]
	if s == nil {
		s = &rootState{}
		t.pending[root] = s
	}
	s.xor ^= initXor
	s.spoutExec = spoutExec
	s.emitAt = emitAt
	s.lastTouch = emitAt
	s.inited = true
	if s.xor != 0 {
		return Completion{}, false
	}
	return t.complete(root, s), true
}

// complete removes a finished root and builds its Completion record.
func (t *Tracker) complete(root tuple.ID, s *rootState) Completion {
	delete(t.pending, root)
	return Completion{
		Root:      root,
		SpoutExec: s.spoutExec,
		Late:      s.failed,
	}
}

// Ack folds an XOR update into the root's checksum: an executor that
// consumed edge e and emitted edges g1..gn sends e^g1^...^gn. When the
// checksum reaches zero (and Init has been seen) the tree is complete and
// the entry is removed.
func (t *Tracker) Ack(root tuple.ID, xorVal tuple.ID, now sim.Time) (Completion, bool) {
	s := t.pending[root]
	if s == nil {
		// Either the init message has not arrived yet (it can race behind
		// a fast bolt's ack) or the root completed long ago. As in Storm's
		// rotating map, create the entry and let Sweep reclaim orphans.
		s = &rootState{}
		t.pending[root] = s
	}
	s.lastTouch = now
	s.xor ^= xorVal
	if !s.inited || s.xor != 0 {
		return Completion{}, false
	}
	return t.complete(root, s), true
}

// ExpireBefore marks failed every inited, not-yet-failed root that was
// emitted before cutoff. It serves callers that
// track time coarsely instead of arming one timer per root — the live runtime's acker executors run it on a slow tick so
// roots whose acks stopped arriving (dropped on a crashed worker) become
// sweepable zombies instead of leaking.
func (t *Tracker) ExpireBefore(cutoff sim.Time) {
	for _, s := range t.pending {
		if !s.failed && s.inited && s.emitAt < cutoff {
			s.failed = true
		}
	}
}

// Sweep evicts entries not touched for at least maxAge: failed zombies
// whose late completion never came, and orphan entries created by acks of
// already-completed roots. It returns the number evicted.
func (t *Tracker) Sweep(now sim.Time, maxAge time.Duration) int {
	n := 0
	for root, s := range t.pending {
		if now.Sub(s.lastTouch) >= maxAge && (s.failed || !s.inited) {
			delete(t.pending, root)
			n++
		}
	}
	return n
}
