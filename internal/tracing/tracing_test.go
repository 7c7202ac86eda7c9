package tracing

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestMask(t *testing.T) {
	for rate, want := range map[int]uint64{1: 0, 2: 1, 1024: 1023} {
		m, err := Mask(rate)
		if err != nil || m != want {
			t.Fatalf("Mask(%d) = %d, %v; want %d", rate, m, err, want)
		}
	}
	for _, rate := range []int{0, -1, 3, 1000} {
		if _, err := Mask(rate); err == nil {
			t.Fatalf("Mask(%d) accepted a non-power-of-two", rate)
		}
	}
	m, _ := Mask(1024)
	if Sampled(0, m) {
		t.Fatal("zero root sampled")
	}
	if !Sampled(1<<10, m) || Sampled(42, m) {
		t.Fatal("mask selection wrong")
	}
}

func TestRingPushDrain(t *testing.T) {
	r := NewRing(8)
	for i := uint64(1); i <= 8; i++ {
		if !r.Push(Span{Self: i}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.Push(Span{Self: 9}) {
		t.Fatal("push accepted on a full ring")
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
	got := r.Drain(nil)
	if len(got) != 8 {
		t.Fatalf("drained %d spans, want 8", len(got))
	}
	for i, sp := range got {
		if sp.Self != uint64(i+1) {
			t.Fatalf("span %d out of order: %d", i, sp.Self)
		}
	}
	// Slots freed: a second lap works.
	if !r.Push(Span{Self: 10}) {
		t.Fatal("push rejected after drain")
	}
	if got := r.Drain(nil); len(got) != 1 || got[0].Self != 10 {
		t.Fatalf("second lap drained %v", got)
	}
}

func TestRingConcurrentProducers(t *testing.T) {
	r := NewRing(1 << 12)
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Push(Span{Self: uint64(p*per + i + 1)})
			}
		}(p)
	}
	var got []Span
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < producers*per {
			got = r.Drain(got)
		}
	}()
	wg.Wait()
	<-done
	seen := make(map[uint64]bool, len(got))
	for _, sp := range got {
		if seen[sp.Self] {
			t.Fatalf("span %d drained twice", sp.Self)
		}
		seen[sp.Self] = true
	}
	if len(seen) != producers*per {
		t.Fatalf("drained %d distinct spans, want %d", len(seen), producers*per)
	}
}

// testTreeSpans is a root → split → count chain with an off-path sibling,
// instants in whole milliseconds from base.
func testTreeSpans(base int64) []Span {
	ms := func(d int64) int64 { return base + d*int64(time.Millisecond) }
	return []Span{
		{Root: 100, Self: 100, Kind: KindRoot, Topology: "wc", Component: "src", EmitAt: ms(0)},
		{Root: 100, Self: 7, Parent: 100, Kind: KindExecute, Topology: "wc", Component: "split", Task: 1,
			Boundary: BoundaryInterNode, SentAt: ms(1), StartAt: ms(4), EndAt: ms(6)},
		{Root: 100, Self: 8, Parent: 7, Kind: KindExecute, Topology: "wc", Component: "count", Task: 2,
			Boundary: BoundaryLocal, SentAt: ms(6), StartAt: ms(7), EndAt: ms(10)},
		// Off-path sibling: finished earlier than the count above.
		{Root: 100, Self: 9, Parent: 7, Kind: KindExecute, Topology: "wc", Component: "count", Task: 0,
			Boundary: BoundaryInterSlot, SentAt: ms(6), StartAt: ms(6), EndAt: ms(8)},
		{Root: 100, Self: 100, Kind: KindAck, Topology: "wc", Component: "src", AckAt: ms(12)},
	}
}

func TestCollectorAssemblesTree(t *testing.T) {
	c := NewCollector(Config{Settle: time.Nanosecond})
	base := time.Now().UnixNano()
	spans := testTreeSpans(base)
	// Deliver out of order, ack and leaf first, across separate batches —
	// the distributed arrival pattern.
	c.Add(spans[4:5])
	c.Add(spans[2:4])
	if got := c.Trees(0); len(got) != 0 {
		t.Fatalf("tree finalized without its root: %+v", got)
	}
	c.Add(spans[0:2])
	time.Sleep(time.Millisecond)
	c.Add(nil)                                        // no-op
	c.Add([]Span{{Root: 1, Self: 1, Kind: KindRoot}}) // unrelated root triggers the sweep
	trees := c.Trees(0)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Root != 100 || tr.Topology != "wc" {
		t.Fatalf("tree identity wrong: %+v", tr)
	}
	if want := 12.0; math.Abs(tr.CompletionMs-want) > 1e-9 {
		t.Fatalf("completion = %v ms, want %v", tr.CompletionMs, want)
	}
	// Critical path: src → split(1) → count(2); the count(0) sibling ended
	// earlier and stays off-path.
	if len(tr.Path) != 2 || tr.Path[0].Component != "split" || tr.Path[1].Component != "count" || tr.Path[1].Task != 2 {
		t.Fatalf("critical path wrong: %+v", tr.Path)
	}
	// Shares: inter-node wait 4ms, local wait 1ms, execute 2+3=5ms, ack 2ms.
	want := map[string]float64{
		BoundaryInterNode: 4, BoundaryLocal: 1, ShareExecute: 5, ShareAck: 2,
	}
	var sum float64
	for k, v := range tr.Shares {
		if math.Abs(v-want[k]) > 1e-9 {
			t.Fatalf("share %q = %v ms, want %v (all: %v)", k, v, want[k], tr.Shares)
		}
		sum += v
	}
	if math.Abs(sum-tr.CompletionMs) > 1e-9 {
		t.Fatalf("shares sum to %v ms, completion is %v ms", sum, tr.CompletionMs)
	}
	if len(tr.Spans) != 5 {
		t.Fatalf("tree retains %d spans, want 5", len(tr.Spans))
	}
	if st := c.Stats(); st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 completed", st)
	}
}

func TestCollectorEvictsBrokenTree(t *testing.T) {
	c := NewCollector(Config{Settle: time.Nanosecond, TTL: 10 * time.Millisecond})
	base := time.Now().UnixNano()
	spans := testTreeSpans(base)
	// Drop the split span: the counts' parents never resolve.
	c.Add(spans[0:1])
	c.Add(spans[2:5])
	time.Sleep(20 * time.Millisecond)
	c.Add([]Span{{Root: 1, Self: 1, Kind: KindRoot}}) // trigger sweep
	if got := c.Trees(0); len(got) != 0 {
		t.Fatalf("broken tree finalized: %+v", got)
	}
	st := c.Stats()
	if st.Evicted != 1 || st.OrphanSpans != 4 {
		t.Fatalf("stats = %+v, want 1 evicted with 4 orphan spans", st)
	}
}

func TestCollectorCapacityAndDrain(t *testing.T) {
	c := NewCollector(Config{Settle: time.Nanosecond, Capacity: 2})
	base := time.Now().UnixNano()
	for i := 0; i < 3; i++ {
		spans := testTreeSpans(base + int64(i)*int64(time.Second))
		root := uint64(200 + i)
		for j := range spans {
			spans[j].Root = root
			if spans[j].Kind != KindExecute {
				spans[j].Self = root
			}
			if spans[j].Parent == 100 {
				spans[j].Parent = root
			}
		}
		c.Add(spans)
		time.Sleep(time.Millisecond)
	}
	c.Add([]Span{{Root: 1, Self: 1, Kind: KindRoot}})
	trees := c.Trees(0)
	if len(trees) != 2 {
		t.Fatalf("retained %d trees, want capacity 2", len(trees))
	}
	if trees[0].Root != 202 || trees[1].Root != 201 {
		t.Fatalf("retention order wrong: %d, %d", trees[0].Root, trees[1].Root)
	}
	shares := ShareByClassOf(trees)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("aggregated shares sum to %v, want 1", sum)
	}
	if got := c.Drain(); len(got) != 2 {
		t.Fatalf("drain returned %d trees", len(got))
	}
	if got := c.Trees(0); len(got) != 0 {
		t.Fatalf("trees retained after drain: %d", len(got))
	}
}
