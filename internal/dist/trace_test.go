// Trace-under-migration stress: sampled roots in flight across a §IV-D
// cross-process migration must still produce complete tuple trees at the
// driver's collector — spans recorded in different worker processes,
// before and after the move, shipped up on heartbeats and stitched
// together — with no orphan spans and critical-path shares that sum to
// the tree's completion latency.
package dist_test

import (
	"math"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/dist"
	"tstorm/internal/topology"
	"tstorm/internal/tracing"
	"tstorm/internal/workloads"
)

func TestDistributedTraceUnderMigration(t *testing.T) {
	p := workloads.SelfFedParams{
		Spouts: 1, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3,
		Reliable: true, Ackers: 1, MaxPending: 64, Limit: 2000,
	}
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader":                slotOn("node01"),
		topology.AckerComponent: slotOn("node01"),
		"split":                 slotOn("node02"),
		"count":                 slotOn("node02"),
		"mongo":                 slotOn("node03"),
	})
	e := startFleet(t, dist.Config{
		Nodes:      3,
		AckTimeout: 2 * time.Second,
		// ~60 sampled trees out of 2000 roots. Each sampled line fans out
		// into ~20 spans (split + per-word count + mongo), so the fast
		// heartbeat keeps the 256-slot executor rings from overflowing.
		TraceSampling:   32,
		HeartbeatPeriod: 25 * time.Millisecond,
	}, p, initial)

	tc := e.TraceCollector()
	if tc == nil {
		t.Fatal("TraceCollector is nil with sampling configured")
	}

	waitFor(t, 30*time.Second, "pre-migration progress", func() bool {
		acked, _, _ := e.Audit("wordcount-live")
		return acked > 200
	})

	// Migrate both count executors across processes while sampled roots
	// are in flight.
	cur, ok := e.CurrentAssignment("wordcount-live")
	if !ok {
		t.Fatal("assignment missing")
	}
	next := cur.Clone()
	for exec, slot := range next.Executors {
		if exec.Component == "count" && slot == slotOn("node02") {
			next.Assign(exec, slotOn("node03"))
		}
	}
	if _, err := e.Apply("wordcount-live", next); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	want := p.Spouts * p.Limit
	waitFor(t, 60*time.Second, "all lines acked across migration", func() bool {
		acked, outstanding, _ := e.Audit("wordcount-live")
		return acked == want && outstanding == 0
	})

	// Sampled roots were registered fleet-wide and their spans reached the
	// driver: wait for trees to settle (heartbeat ship + collector settle
	// delay) and assemble.
	tot := e.Totals()
	if tot.TraceSampled == 0 {
		t.Fatal("no roots sampled at rate 8 across the whole run")
	}
	if tot.TraceSpanDropped != 0 {
		t.Errorf("%d spans dropped to full rings (trees may be incomplete)", tot.TraceSpanDropped)
	}
	waitFor(t, 15*time.Second, "assembled tuple trees", func() bool {
		return tc.Stats().Completed >= 10
	})

	st := tc.Stats()
	if st.Evicted != 0 || st.OrphanSpans != 0 {
		t.Errorf("collector evicted %d trees with %d orphan spans; want none", st.Evicted, st.OrphanSpans)
	}

	trees := tc.Trees(64)
	if len(trees) == 0 {
		t.Fatal("no completed trees retained")
	}
	sawInterNode := false
	for _, tr := range trees {
		if len(tr.Path) == 0 || len(tr.Spans) < 3 {
			t.Fatalf("tree %x incomplete: %d path steps, %d spans", tr.Root, len(tr.Path), len(tr.Spans))
		}
		var sum float64
		for _, v := range tr.Shares {
			sum += v
		}
		// Acceptance bar: boundary-class shares decompose the completion
		// latency within 1%.
		if tr.CompletionMs <= 0 || math.Abs(sum-tr.CompletionMs) > 0.01*tr.CompletionMs {
			t.Errorf("tree %x: shares sum %.4fms vs completion %.4fms (off by >1%%)",
				tr.Root, sum, tr.CompletionMs)
		}
		for _, step := range tr.Path {
			switch step.Boundary {
			case tracing.BoundaryLocal, tracing.BoundaryInterSlot,
				tracing.BoundaryInterProcess, tracing.BoundaryInterNode, "":
			default:
				t.Errorf("tree %x: unknown boundary class %q", tr.Root, step.Boundary)
			}
			if step.Boundary == tracing.BoundaryInterNode {
				sawInterNode = true
			}
		}
	}
	// Every hop in this placement crosses processes on different emulated
	// nodes, so real TCP hops must show up on critical paths.
	if !sawInterNode {
		t.Error("no inter-node step on any critical path despite cross-process placement")
	}
	shares := tracing.ShareByClassOf(trees)
	var frac float64
	for _, v := range shares {
		frac += v
	}
	if math.Abs(frac-1) > 1e-6 {
		t.Errorf("ShareByClassOf fractions sum to %.6f, want 1", frac)
	}
	t.Logf("%d trees assembled; share by class: %v", len(trees), shares)
}

// TestDistributedSpansShippedByLoad: at the default 100 ms heartbeat the
// single mongo executor — it sees every word — records several rings of
// spans between two beats. A worker beats early when a ring has taken half
// its capacity, so none is dropped: the period bounds how stale a quiet
// ring gets, not how many spans a busy one may hold.
func TestDistributedSpansShippedByLoad(t *testing.T) {
	p := workloads.SelfFedParams{
		Spouts: 1, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3,
		Reliable: true, Ackers: 1, MaxPending: 64, Limit: 4000,
	}
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader":                slotOn("node01"),
		topology.AckerComponent: slotOn("node01"),
		"split":                 slotOn("node02"),
		"count":                 slotOn("node02"),
		"mongo":                 slotOn("node03"),
	})
	e := startFleet(t, dist.Config{Nodes: 3, AckTimeout: 2 * time.Second, TraceSampling: 32}, p, initial)
	want := p.Spouts * p.Limit
	waitFor(t, 60*time.Second, "all lines acked", func() bool {
		acked, outstanding, _ := e.Audit("wordcount-live")
		return acked == want && outstanding == 0
	})
	tot := e.Totals()
	// ≈ 125 sampled lines of ≈ 20 words: the mongo executor alone records
	// ≈ 2500 spans, ten times its ring.
	if tot.TraceSampled < 50 {
		t.Fatalf("%d roots sampled of %d at 1/32", tot.TraceSampled, want)
	}
	if tot.TraceSpanDropped != 0 {
		t.Errorf("%d spans dropped to full rings between two heartbeats", tot.TraceSpanDropped)
	}
}
