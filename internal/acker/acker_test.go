package acker

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tstorm/internal/sim"
	"tstorm/internal/tuple"
)

func at(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }

// simulateTree walks a linear tuple tree of depth n through the tracker:
// spout emits root, each stage acks its input edge XOR its output edge.
func simulateTree(t *testing.T, tr *Tracker, root tuple.ID, depth int) Completion {
	t.Helper()
	tr.Init(root, root, 7, at(0))
	edges := make([]tuple.ID, depth)
	cur := root
	for i := 0; i < depth; i++ {
		edges[i] = tuple.ID(uint64(root)*1000 + uint64(i) + 1)
		// Stage i consumes edge cur, emits edges[i].
		if c, done := tr.Ack(root, cur^edges[i], at(float64(i+1))); done {
			t.Fatalf("premature completion at stage %d: %+v", i, c)
		}
		cur = edges[i]
	}
	// Final stage consumes cur and emits nothing.
	c, done := tr.Ack(root, cur, at(float64(depth+1)))
	if !done {
		t.Fatalf("tree of depth %d did not complete", depth)
	}
	return c
}

// expire runs ExpireBefore and returns the roots it newly failed, in order.
func expire(tr *Tracker, cutoff sim.Time) []tuple.ID {
	was := map[tuple.ID]bool{}
	for root, s := range tr.pending {
		was[root] = s.failed
	}
	tr.ExpireBefore(cutoff)
	var out []tuple.ID
	for root, s := range tr.pending {
		if s.failed && !was[root] {
			out = append(out, root)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestLinearTreeCompletes(t *testing.T) {
	tr := NewTracker()
	c := simulateTree(t, tr, 0xabc, 3)
	if c.Root != 0xabc || c.SpoutExec != 7 || c.Late {
		t.Fatalf("completion = %+v", c)
	}
	if len(tr.pending) != 0 {
		t.Fatalf("pending = %d after completion", len(tr.pending))
	}
}

func TestFanOutTree(t *testing.T) {
	// Root fans out to two children; both must ack before completion.
	tr := NewTracker()
	root := tuple.ID(0x11)
	c1, c2 := tuple.ID(0x22), tuple.ID(0x33)
	tr.Init(root, root, 1, at(0))
	// Splitter consumes root, emits c1 and c2.
	if _, done := tr.Ack(root, root^c1^c2, at(1)); done {
		t.Fatal("completed before leaves acked")
	}
	if _, done := tr.Ack(root, c1, at(2)); done {
		t.Fatal("completed with one leaf outstanding")
	}
	c, done := tr.Ack(root, c2, at(3))
	if !done {
		t.Fatalf("completion = %+v done=%v", c, done)
	}
}

func TestAckBeforeInitMerges(t *testing.T) {
	tr := NewTracker()
	root := tuple.ID(0x5)
	// A bolt's ack races ahead of the spout's init message.
	if _, done := tr.Ack(root, root, at(1)); done {
		t.Fatal("completed without init")
	}
	// Init merges to a zero checksum and completes the tree itself, exactly
	// as a late-arriving ack would.
	c, done := tr.Init(root, root, 3, at(0))
	if !done || c.SpoutExec != 3 || c.Root != root {
		t.Fatalf("completion on init-merge = %+v done=%v", c, done)
	}
	if len(tr.pending) != 0 {
		t.Fatalf("pending = %d after init-completes", len(tr.pending))
	}
}

func TestExpireBefore(t *testing.T) {
	tr := NewTracker()
	tr.Init(0x1, 0x1, 4, at(0))  // old, should expire
	tr.Init(0x2, 0x2, 5, at(10)) // fresh, should survive
	tr.Ack(0x3, 0x3, at(0))      // orphan (no init), never expires
	tr.Init(0x4, 0x4, 6, at(1))
	tr.pending[0x4].failed = true // already failed, not expired twice
	if exp := expire(tr, at(5)); len(exp) != 1 || exp[0] != 0x1 || tr.pending[0x1].spoutExec != 4 {
		t.Fatalf("ExpireBefore expired %v", exp)
	}
	// Expired roots are zombies: retained for late completion, sweepable.
	c, done := tr.Ack(0x1, 0x1, at(40))
	if !done || !c.Late {
		t.Fatalf("late completion of expired root = %+v done=%v", c, done)
	}
	// The fresh root is untouched and still completes normally.
	if c, done := tr.Ack(0x2, 0x2, at(12)); !done || c.Late {
		t.Fatalf("fresh root completion = %+v done=%v", c, done)
	}
	if got := expire(tr, at(100)); len(got) != 0 {
		t.Fatalf("second ExpireBefore re-expired: %+v", got)
	}
}

func TestTimeoutThenLateCompletion(t *testing.T) {
	tr := NewTracker()
	root := tuple.ID(0x77)
	tr.Init(root, root, 2, at(0))
	if exp := expire(tr, at(30)); len(exp) != 1 || exp[0] != root || tr.pending[root].spoutExec != 2 {
		t.Fatalf("ExpireBefore expired %v", exp)
	}
	// Second expiry of the same root is a no-op.
	if exp := expire(tr, at(30)); len(exp) != 0 {
		t.Fatalf("root expired twice: %+v", exp)
	}
	// Late completion still observed, flagged Late.
	c, done := tr.Ack(root, root, at(45))
	if !done || !c.Late {
		t.Fatalf("late completion = %+v done=%v", c, done)
	}
}

func TestTimeoutAfterCompletionIsNoop(t *testing.T) {
	tr := NewTracker()
	root := tuple.ID(0x9)
	tr.Init(root, root, 0, at(0))
	if _, done := tr.Ack(root, root, at(1)); !done {
		t.Fatal("no completion")
	}
	if exp := expire(tr, at(30)); len(exp) != 0 {
		t.Fatalf("completed root expired: %+v", exp)
	}
}

func TestTimeoutUnknownRoot(t *testing.T) {
	tr := NewTracker()
	// A root the tracker never saw Init for cannot time out, even when an
	// ack created an orphan entry for it.
	tr.Ack(0xdead, 0xdead, at(0))
	if exp := expire(tr, at(100)); len(exp) != 0 {
		t.Fatalf("unknown root expired: %+v", exp)
	}
}

func TestAckUnknownRootCreatesOrphan(t *testing.T) {
	tr := NewTracker()
	if _, done := tr.Ack(0xdead, 0xdead, at(0)); done {
		t.Fatal("orphan ack completed without init")
	}
	if len(tr.pending) != 1 {
		t.Fatal("orphan entry not created")
	}
	// Orphans are reclaimed by Sweep once stale.
	if n := tr.Sweep(at(10), 5*time.Second); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if len(tr.pending) != 0 {
		t.Fatal("orphan survived sweep")
	}
}

func TestSweepKeepsLiveAndFreshEntries(t *testing.T) {
	tr := NewTracker()
	tr.Init(0x1, 0x1, 0, at(0)) // live, inited: never swept
	tr.Init(0x2, 0x2, 0, at(0))
	tr.pending[0x2].failed = true // failed zombie
	tr.Ack(0x3, 0x3, at(9))       // fresh orphan
	if n := tr.Sweep(at(10), 5*time.Second); n != 1 {
		t.Fatalf("Sweep = %d, want 1 (only the stale zombie)", n)
	}
	if len(tr.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(tr.pending))
	}
}

// Property: for any random tree shape (sequence of (consumed, emitted...)
// steps forming a valid tree), acking every edge exactly once completes
// the root, regardless of ack order.
func TestPropertyTreeAlwaysCompletes(t *testing.T) {
	f := func(shape []uint8, seed int64) bool {
		tr := NewTracker()
		rng := rand.New(rand.NewSource(seed))
		root := tuple.ID(rng.Uint64() | 1)
		tr.Init(root, root, 0, at(0))

		// Build a random tree: frontier of unacked edges; each step pops
		// one and emits 0-2 children.
		frontier := []tuple.ID{root}
		var acks []tuple.ID
		next := uint64(1)
		for _, s := range shape {
			if len(frontier) == 0 {
				break
			}
			i := int(s) % len(frontier)
			edge := frontier[i]
			frontier = append(frontier[:i], frontier[i+1:]...)
			children := int(s % 3)
			x := edge
			for c := 0; c < children; c++ {
				next++
				child := tuple.ID(next*2654435761 + uint64(seed))
				if child == 0 || child == edge {
					child = tuple.ID(next)
				}
				x ^= child
				frontier = append(frontier, child)
			}
			acks = append(acks, x)
		}
		// Drain the frontier: leaves ack their own edge.
		for _, edge := range frontier {
			acks = append(acks, edge)
		}
		// Shuffle ack order.
		rng.Shuffle(len(acks), func(i, j int) { acks[i], acks[j] = acks[j], acks[i] })
		completed := false
		for i, x := range acks {
			c, done := tr.Ack(root, x, at(float64(i)))
			if done {
				if completed {
					return false // double completion
				}
				completed = true
				if c.Root != root {
					return false
				}
			}
		}
		// XOR of all acks is root (tree invariant), so it must complete
		// exactly at the last ack... unless an intermediate prefix XORed
		// to zero (possible but astronomically unlikely with random IDs).
		return completed && len(tr.pending) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
