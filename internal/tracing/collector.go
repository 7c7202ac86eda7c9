package tracing

import (
	"sort"
	"sync"
	"time"
)

// Config holds the collector's knobs. Zero values take defaults.
type Config struct {
	// Capacity bounds how many finished trees are retained for /debug/tuples
	// (default 256; the oldest falls off).
	Capacity int
	// TTL bounds how long an unfinished tree waits for missing spans before
	// being evicted as orphaned (default 30s). Spans drop when a ring
	// overflows or a worker dies mid-tree, so pending state must be bounded.
	TTL time.Duration
	// Settle is how long a root's span set must be quiet (no new spans)
	// before a structurally complete tree is finalized (default 250ms). In
	// the distributed backend spans arrive out of order across worker
	// heartbeats, so finalizing on first completeness would race late
	// siblings.
	Settle time.Duration
}

func (c *Config) fillDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.TTL <= 0 {
		c.TTL = 30 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 250 * time.Millisecond
	}
}

// PathStep is one hop of a tree's critical path: the wait from the
// previous step's end to this executor's execute start (queue + wire,
// attributed to the hop's boundary class) and the execute time itself.
type PathStep struct {
	Component string  `json:"component"`
	Task      int     `json:"task"`
	Boundary  string  `json:"boundary"`
	WaitMs    float64 `json:"wait_ms"`
	ExecMs    float64 `json:"exec_ms"`
}

// Tree is one assembled sampled tuple tree. Shares decomposes the
// completion latency along the critical path: per-boundary-class wait
// buckets plus "execute" and "ack". The decomposition telescopes over the
// path's instants, so the shares sum to CompletionMs exactly.
type Tree struct {
	Root         uint64             `json:"root"`
	Topology     string             `json:"topology"`
	EmitAt       int64              `json:"emit_at"`
	AckAt        int64              `json:"ack_at"`
	CompletionMs float64            `json:"completion_ms"`
	Spans        []Span             `json:"spans"`
	Path         []PathStep         `json:"critical_path"`
	Shares       map[string]float64 `json:"critical_path_shares_ms"`
}

// Stats is the collector's counter snapshot.
type Stats struct {
	// Completed counts trees fully assembled and finalized.
	Completed int64 `json:"completed"`
	// Evicted counts pending trees dropped after TTL with spans missing.
	Evicted int64 `json:"evicted"`
	// OrphanSpans counts spans discarded with evicted trees.
	OrphanSpans int64 `json:"orphan_spans"`
	// Pending is the number of trees currently awaiting spans.
	Pending int `json:"pending"`
}

// pendingTree accumulates one root's spans until the tree is complete.
type pendingTree struct {
	root      *Span
	ack       *Span
	execs     map[uint64]Span // execute spans by Self (the tuple's edge ID)
	firstSeen time.Time
	lastAdd   time.Time
}

// Collector assembles spans into tuple trees. One collector serves one
// process: the in-process live engine drains its executors' rings into
// it; the distributed driver feeds it the span batches workers ship in
// their heartbeats.
type Collector struct {
	cfg Config

	mu      sync.Mutex
	pending map[uint64]*pendingTree
	done    []Tree // finished trees, oldest first
	stats   Stats
}

// NewCollector returns a collector with the given config.
func NewCollector(cfg Config) *Collector {
	cfg.fillDefaults()
	return &Collector{cfg: cfg, pending: make(map[uint64]*pendingTree)}
}

// Add merges a span batch, finalizes every tree that is complete and has
// settled, and evicts pending trees past the TTL.
func (c *Collector) Add(spans []Span) {
	if len(spans) == 0 {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sp := range spans {
		t := c.pending[sp.Root]
		if t == nil {
			t = &pendingTree{execs: make(map[uint64]Span), firstSeen: now}
			c.pending[sp.Root] = t
		}
		t.lastAdd = now
		switch sp.Kind {
		case KindRoot:
			// A replay re-registers the root; both carry the same first-emit
			// instant, so overwriting is idempotent.
			s := sp
			t.root = &s
		case KindAck:
			s := sp
			t.ack = &s
		case KindExecute:
			t.execs[sp.Self] = sp
		}
	}
	c.sweepLocked(now)
}

// sweepLocked finalizes settled complete trees and evicts expired ones.
func (c *Collector) sweepLocked(now time.Time) {
	for root, t := range c.pending {
		if t.root != nil && t.ack != nil && now.Sub(t.lastAdd) >= c.cfg.Settle {
			if tree, ok := c.finalize(root, t); ok {
				c.retain(tree)
				c.stats.Completed++
				delete(c.pending, root)
				continue
			}
		}
		if now.Sub(t.firstSeen) > c.cfg.TTL {
			c.stats.Evicted++
			c.stats.OrphanSpans += int64(len(t.execs))
			if t.root != nil {
				c.stats.OrphanSpans++
			}
			if t.ack != nil {
				c.stats.OrphanSpans++
			}
			delete(c.pending, root)
		}
	}
}

// finalize assembles one tree: every execute span must link (transitively
// through Parent) back to the root and at least one execute span must be
// present — a bare root+ack pair means the tree's spans were dropped, and
// publishing it would misattribute the whole latency to ack wait.
func (c *Collector) finalize(root uint64, t *pendingTree) (Tree, bool) {
	if len(t.execs) == 0 {
		return Tree{}, false
	}
	// Linkage check: walk each span's parent chain to the root span's Self.
	// Memoized via linked; a missing parent (dropped sibling) fails the
	// whole tree — it stays pending until the TTL evicts it.
	linked := make(map[uint64]bool, len(t.execs)+1)
	linked[t.root.Self] = true
	var resolves func(self uint64, depth int) bool
	resolves = func(self uint64, depth int) bool {
		if linked[self] {
			return true
		}
		if depth > len(t.execs) {
			return false // cycle guard; cannot happen with random edge IDs
		}
		sp, ok := t.execs[self]
		if !ok || !resolves(sp.Parent, depth+1) {
			return false
		}
		linked[self] = true
		return true
	}
	for self := range t.execs {
		if !resolves(self, 0) {
			return Tree{}, false
		}
	}

	// Critical path: the chain from the root to the execute span whose
	// execute finished last — the span that (up to ack propagation) bounds
	// the tree's completion.
	var last Span
	for _, sp := range t.execs {
		if last.Self == 0 || sp.EndAt > last.EndAt {
			last = sp
		}
	}
	var chain []Span
	for cur := last; ; {
		chain = append(chain, cur)
		if cur.Parent == t.root.Self {
			break
		}
		cur = t.execs[cur.Parent]
	}
	// chain is leaf→root; reverse to root→leaf.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	// Telescoping decomposition: consecutive instants partition
	// [EmitAt, AckAt] exactly, so the shares sum to the completion latency
	// by construction.
	tree := Tree{
		Root:         root,
		Topology:     t.root.Topology,
		EmitAt:       t.root.EmitAt,
		AckAt:        t.ack.AckAt,
		CompletionMs: float64(t.ack.AckAt-t.root.EmitAt) / 1e6,
		Shares:       make(map[string]float64),
	}
	prev := t.root.EmitAt
	for _, sp := range chain {
		step := PathStep{
			Component: sp.Component,
			Task:      sp.Task,
			Boundary:  sp.Boundary,
			WaitMs:    float64(sp.StartAt-prev) / 1e6,
			ExecMs:    float64(sp.EndAt-sp.StartAt) / 1e6,
		}
		tree.Path = append(tree.Path, step)
		tree.Shares[sp.Boundary] += step.WaitMs
		tree.Shares[ShareExecute] += step.ExecMs
		prev = sp.EndAt
	}
	tree.Shares[ShareAck] += float64(t.ack.AckAt-prev) / 1e6

	tree.Spans = make([]Span, 0, len(t.execs)+2)
	tree.Spans = append(tree.Spans, *t.root)
	for _, sp := range t.execs {
		tree.Spans = append(tree.Spans, sp)
	}
	tree.Spans = append(tree.Spans, *t.ack)
	sort.Slice(tree.Spans, func(i, j int) bool {
		a, b := &tree.Spans[i], &tree.Spans[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.StartAt != b.StartAt {
			return a.StartAt < b.StartAt
		}
		return a.Self < b.Self
	})
	return tree, true
}

// retain appends a finished tree, dropping the oldest past capacity.
func (c *Collector) retain(t Tree) {
	c.done = append(c.done, t)
	if len(c.done) > c.cfg.Capacity {
		c.done = c.done[len(c.done)-c.cfg.Capacity:]
	}
}

// Trees returns up to n finished trees, newest first (n <= 0 means all
// retained).
func (c *Collector) Trees(n int) []Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > len(c.done) {
		n = len(c.done)
	}
	out := make([]Tree, n)
	for i := 0; i < n; i++ {
		out[i] = c.done[len(c.done)-1-i]
	}
	return out
}

// Drain returns every retained finished tree (oldest first) and clears
// the retention buffer — benchmark windows use before/after drains.
func (c *Collector) Drain() []Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.done
	c.done = nil
	return out
}

// Stats snapshots the collector's counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Pending = len(c.pending)
	return s
}

// ShareByClass aggregates the critical-path decomposition over the
// retained finished trees into fractions of total completion latency,
// keyed by boundary class plus "execute" and "ack". Empty when no tree
// has finished.
func (c *Collector) ShareByClass() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return shareByClass(c.done)
}

// shareByClass is the aggregation core, shared with benchmark windows
// that operate on drained trees.
func shareByClass(trees []Tree) map[string]float64 {
	var total float64
	sums := make(map[string]float64)
	for i := range trees {
		total += trees[i].CompletionMs
		for k, v := range trees[i].Shares {
			sums[k] += v
		}
	}
	if total <= 0 {
		return nil
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums
}

// ShareByClassOf aggregates shares over an explicit tree slice (the
// benchmark's drained windows).
func ShareByClassOf(trees []Tree) map[string]float64 { return shareByClass(trees) }
