// Package coord is the cluster coordination substrate standing in for
// ZooKeeper. It provides a hierarchical namespace of versioned znodes with
// watches; Nimbus publishes assignments here, supervisors watch for them,
// and the schedule generator publishes schedules for the custom scheduler
// to fetch — exactly the flows the paper routes through ZooKeeper and its
// schedule database.
//
// Watch notifications are delivered asynchronously after a configurable
// notification latency, mimicking the real watcher round-trip. A store
// built with NewStore runs on the simulation engine's virtual clock; one
// built with NewWallStore delivers over wall-clock timers and is safe for
// concurrent use — the distributed runtime's Nimbus publishes assignments
// through a wall store while worker sessions watch them from other
// goroutines.
package coord

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/sim"
)

// Errors returned by the store, mirroring ZooKeeper's error model.
var (
	ErrNoNode     = errors.New("coord: node does not exist")
	ErrNodeExists = errors.New("coord: node already exists")
	ErrBadVersion = errors.New("coord: version conflict")
	ErrNotEmpty   = errors.New("coord: node has children")
	ErrBadPath    = errors.New("coord: malformed path")
)

type znode struct {
	data     []byte
	version  int
	children map[string]*znode
}

func newZnode() *znode {
	return &znode{children: make(map[string]*znode)}
}

type watcher struct {
	fn     func()
	active atomic.Bool
}

// Watch is a handle to a registered watcher.
type Watch struct{ w *watcher }

// Cancel deactivates the watcher. Pending (already scheduled)
// notifications are still delivered but suppressed at fire time.
func (w *Watch) Cancel() {
	if w != nil && w.w != nil {
		w.w.active.Store(false)
	}
}

// Store is an in-memory ZooKeeper-like coordination service.
type Store struct {
	// mu guards the tree and the watcher registry. The simulation drives
	// a store from a single goroutine, so the lock is uncontended there;
	// the wall-clock variant is hit concurrently by Nimbus and its worker
	// sessions. Watcher callbacks always run outside the lock (scheduled
	// asynchronously), so they may re-enter the store freely.
	mu          sync.Mutex
	eng         *sim.Engine // nil for wall-clock stores
	root        *znode
	notifyDelay time.Duration
	watchers    map[string][]*watcher // node path → watchers
	sessionSeq  int64
}

// NewStore returns an empty store delivering watch notifications on eng
// after notifyDelay (use 0 for immediate same-instant delivery).
func NewStore(eng *sim.Engine, notifyDelay time.Duration) *Store {
	if notifyDelay < 0 {
		notifyDelay = 0
	}
	return &Store{
		eng:         eng,
		root:        newZnode(),
		notifyDelay: notifyDelay,
		watchers:    make(map[string][]*watcher),
	}
}

// NewWallStore returns an empty store on the wall clock: notifications
// fire on real timers after notifyDelay and every operation is safe for
// concurrent use. This is the store the distributed runtime's control
// plane publishes assignments through.
func NewWallStore(notifyDelay time.Duration) *Store {
	return NewStore(nil, notifyDelay)
}

// after schedules fn on the store's clock: the simulation engine's
// virtual timeline, or a wall timer for wall stores.
func (s *Store) after(fn func()) {
	if s.eng != nil {
		s.eng.After(s.notifyDelay, fn)
		return
	}
	time.AfterFunc(s.notifyDelay, fn)
}

// split validates and splits an absolute path like "/a/b" into components.
func split(path string) ([]string, error) {
	if path == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	parts := strings.Split(path[1:], "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

func (s *Store) lookup(parts []string) (*znode, bool) {
	n := s.root
	for _, p := range parts {
		c, ok := n.children[p]
		if !ok {
			return nil, false
		}
		n = c
	}
	return n, true
}

// Create makes a new znode at path with the given data. All ancestors must
// already exist ("/" always exists). It returns ErrNodeExists if the node
// is already present.
func (s *Store) Create(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.createLocked(path, data)
}

func (s *Store) createLocked(path string, data []byte) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrNodeExists // "/" always exists
	}
	pnode, ok := s.lookup(parts[:len(parts)-1])
	if !ok {
		return fmt.Errorf("%w: parent of %q", ErrNoNode, path)
	}
	name := parts[len(parts)-1]
	if _, exists := pnode.children[name]; exists {
		return ErrNodeExists
	}
	n := newZnode()
	n.data = append([]byte(nil), data...)
	pnode.children[name] = n
	s.notify(path)
	return nil
}

// CreateAll creates the znode at path and any missing ancestors
// (missing ancestors get nil data). Existing nodes are left untouched;
// if the leaf exists its data is NOT changed and ErrNodeExists is returned.
func (s *Store) CreateAll(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.createAllLocked(path, data)
}

func (s *Store) createAllLocked(path string, data []byte) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	cur := "/"
	for i := range parts[:max(0, len(parts)-1)] {
		cur = join(cur, parts[i])
		if _, ok := s.lookup(parts[:i+1]); !ok {
			if err := s.createLocked(cur, nil); err != nil {
				return err
			}
		}
	}
	return s.createLocked(path, data)
}

func join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Set replaces the data at path and bumps the version. expectVersion of -1
// matches any version; otherwise ErrBadVersion is returned on mismatch.
// It returns the new version.
func (s *Store) Set(path string, data []byte, expectVersion int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setLocked(path, data, expectVersion)
}

func (s *Store) setLocked(path string, data []byte, expectVersion int) (int, error) {
	parts, err := split(path)
	if err != nil {
		return 0, err
	}
	n, ok := s.lookup(parts)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	if expectVersion >= 0 && expectVersion != n.version {
		return 0, fmt.Errorf("%w: have %d, expected %d", ErrBadVersion, n.version, expectVersion)
	}
	n.data = append([]byte(nil), data...)
	n.version++
	s.notify(path)
	return n.version, nil
}

// SetOrCreate writes data at path, creating the node (and ancestors) if
// needed. It returns the resulting version.
func (s *Store) SetOrCreate(path string, data []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts, err := split(path)
	if err != nil {
		return 0, err
	}
	if _, ok := s.lookup(parts); !ok {
		if err := s.createAllLocked(path, data); err != nil {
			return 0, err
		}
		return 0, nil
	}
	return s.setLocked(path, data, -1)
}

// Get returns a copy of the data and the version at path.
func (s *Store) Get(path string) ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts, err := split(path)
	if err != nil {
		return nil, 0, err
	}
	n, ok := s.lookup(parts)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	return append([]byte(nil), n.data...), n.version, nil
}

// Exists reports whether a znode is present at path.
func (s *Store) Exists(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts, err := split(path)
	if err != nil {
		return false
	}
	_, ok := s.lookup(parts)
	return ok
}

// Delete removes the znode at path. It returns ErrNotEmpty if the node
// still has children.
func (s *Store) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot delete root", ErrBadPath)
	}
	pnode, ok := s.lookup(parts[:len(parts)-1])
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	name := parts[len(parts)-1]
	n, ok := pnode.children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	delete(pnode.children, name)
	s.notify(path)
	return nil
}

// WatchData registers a persistent watcher for data changes (create,
// change, delete) of the znode at path. The node need not exist yet; fn
// reads the node's state itself.
func (s *Store) WatchData(path string, fn func()) *Watch {
	w := &watcher{fn: fn}
	w.active.Store(true)
	s.mu.Lock()
	s.watchers[path] = append(s.watchers[path], w)
	s.mu.Unlock()
	return &Watch{w: w}
}

func (s *Store) notify(path string) {
	for _, w := range s.watchers[path] {
		if !w.active.Load() {
			continue
		}
		w := w
		s.after(func() {
			if w.active.Load() {
				w.fn()
			}
		})
	}
}
