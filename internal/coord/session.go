package coord

import (
	"fmt"
	"time"

	"tstorm/internal/sim"
)

// Session is a ZooKeeper-style client session: ephemeral znodes created
// under it live exactly as long as the session. A session stays alive by
// being refreshed (heartbeats) within its timeout; when it expires, every
// ephemeral node it owns is deleted and watchers are notified — the
// mechanism Storm uses to detect dead supervisors.
type Session struct {
	store     *Store
	id        int64
	timeout   time.Duration
	expiry    *sim.Timer
	ephemeral map[string]bool
	closed    bool
}

// NewSession opens a session with the given timeout. It is alive until
// the timeout elapses without a Refresh, or until Close.
func (s *Store) NewSession(timeout time.Duration) (*Session, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("coord: non-positive session timeout")
	}
	s.sessionSeq++
	sess := &Session{
		store:     s,
		id:        s.sessionSeq,
		timeout:   timeout,
		ephemeral: make(map[string]bool),
	}
	sess.arm()
	return sess, nil
}

// Alive reports whether the session has neither expired nor been closed.
func (sess *Session) Alive() bool { return !sess.closed }

func (sess *Session) arm() {
	sess.expiry = sess.store.eng.After(sess.timeout, sess.expire)
}

// Refresh extends the session's life by its timeout — the heartbeat.
// Refreshing a dead session returns false.
func (sess *Session) Refresh() bool {
	if sess.closed {
		return false
	}
	sess.expiry.Cancel()
	sess.arm()
	return true
}

func (sess *Session) expire() {
	if sess.closed {
		return
	}
	sess.closed = true
	for path := range sess.ephemeral {
		_ = sess.store.Delete(path)
	}
	sess.ephemeral = nil
}

// CreateEphemeral creates a znode bound to the session's lifetime. Like
// ZooKeeper, ephemeral nodes cannot have children.
func (sess *Session) CreateEphemeral(path string, data []byte) error {
	if sess.closed {
		return fmt.Errorf("coord: session %d is dead", sess.id)
	}
	if err := sess.store.Create(path, data); err != nil {
		return err
	}
	sess.ephemeral[path] = true
	return nil
}

// SetEphemeral updates (creating if needed) an ephemeral znode owned by
// the session.
func (sess *Session) SetEphemeral(path string, data []byte) error {
	if sess.closed {
		return fmt.Errorf("coord: session %d is dead", sess.id)
	}
	if sess.ephemeral[path] {
		_, err := sess.store.Set(path, data, -1)
		return err
	}
	return sess.CreateEphemeral(path, data)
}
