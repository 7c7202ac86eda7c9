#!/bin/sh
# Tier-1 verification loop: build, vet, and run the full test suite with
# the race detector enabled (the live runtime is heavily concurrent).
# The dead-code gates run first, by name and uncached: the declaration
# gate, the struct-field gate (unread fields, one-value knobs) and the
# doc-name check, so neither a cached pass nor an earlier failure can
# hide them.
# The routing-snapshot stress tests run first and explicitly so the
# lock-free emission path is always exercised under the race detector,
# even when the package list or cache state changes.
# The telemetry scrape-under-churn stress runs the same way: every /metrics
# handler read races live emissions and Apply re-assignments.
# The health-under-churn stress adds the observability layer to that mix:
# a 2 ms sampler feeds the single-writer tsdb rings and the SLO engine
# while scrapers read /metrics, /debug/timeseries, and /debug/health and
# Apply flips the placement — the lock-free ring reader/writer claims
# only hold if this stays clean under the race detector.
# The tsdb reader/writer race runs 50 times under the race detector: Last
# copies slots while the single writer laps the ring, and the copy is only
# consistent because the ring keeps one spare physical slot for the sample
# in flight — with exactly capacity slots this test failed most runs on a
# 2-core box.
# The chaos matrix (worker crashes, crash-during-migration, node failure →
# reschedule) runs twice under the race detector: fault injection +
# supervised restart are timing-sensitive, and each test asserts
# at-least-once conservation (every spout root acked or replayed).
# The queue-bound tests run 20 times under the race detector: senders
# charge a bolt's tuple count before they enqueue and park on a one-slot
# wake channel at the bound, so a lost wake-up wedges a sender forever and
# a missed credit leaves the count above 0 after the queue is empty — on
# every path that moves or drops a batch (crash, node failure, live and
# cross-process migration, Stop). TestMonitorGaugesAndSampleEvents rides
# along: Samples() must never run ahead of the monitor-sampled events.
# The distributed smoke runs explicitly under the race detector: real
# worker processes are spawned over loopback TCP, one is killed with a
# real SIGKILL, and the tests assert supervised respawn plus exact
# at-least-once conservation across the process death.
# The distributed pass includes the trace-under-migration stress
# (TestDistributedTraceUnderMigration): sampled tuple trees crossing a
# live §IV-D migration must assemble completely at the driver — no orphan
# spans — with critical-path shares summing to the completion latency.
# TestDistributedSpansShippedByLoad holds the other half of that: at the
# default heartbeat no span is dropped to a full ring, because a worker
# beats early once a ring is half full.
# The allocation gate reruns the emit-path benchmarks and fails if ANY of
# them regressed past 1 alloc/op: the pooled emission rewrite holds both
# the plain path and the tracing-enabled unsampled path at 0, and a
# regression here silently costs double-digit throughput on the GC-bound
# 1-CPU benchmark hosts. BenchmarkPoolRoundTrip rides in the same gate at
# 0 allocs/op: a batch pool's steady-state get/put pair recycles the
# slice's holder with the slice.
# The wire-hop gate holds the inter-process hop to its allocation budget
# per FRAME, whatever the tuples per frame (1, 16, 256): BenchmarkIngest
# (decode into a pooled batch over a pooled slab, enqueue, release) at
# exactly 0 allocs/op, and BenchmarkWireHop (remote delivery → peer writer
# → loopback TCP → handleData → Ingest → sink) below 0.5 allocs/frame — it
# measures 0.0002–0.02, the rare pool miss, and a single allocation added
# to the per-frame path reads 1.0; before the borrowed-buffer hop it read
# 19 / 124 / 1804. Counts, not wall time: the box is shared.
# The codec fuzz smoke throws 30s of generated hostile bytes at the wire
# decoders (workers decode frames from the network, so malformed input
# must error, never panic).
# The golden-assignment tests pin every scheduling algorithm's output
# byte-for-byte, and the hot-swap test swaps contenders by name on a
# running engine; both run explicitly so scheduler-API changes cannot
# silently alter placements. The generator tests run beside the hot swap
# under the race detector: the one schedule generator serves the DES and
# both wall-clock backends, it is held call for call to the wall-clock
# generator it replaced, and on a wall clock its ticks run on their own
# goroutine while callers reschedule and swap algorithms. The arena smoke
# then runs every registered algorithm over the live workload — a
# contender that errors or drops an executor from the live placement exits
# non-zero here. The live run has one topology, so the cross-topology
# check (every executor placed, no slot shared across topologies, no
# panic) is TestContendersOnTwoTopologies, run by name beside
# TestGoldenAssignments over the arena's contender set.
# The scheduler-round gate reruns one Algorithm 1, rstorm and hetero round
# at Ne = 1000 (50 nodes) and fails when allocs/op passes a budget of twice
# what it measured: 54 / 104 / 54, from 27 / 52 / 27 once the round
# sorted in place and built its adjacency, executor list and slot list
# without throwaway copies (before that 56 / 75 / 53; the map-based
# interning took 70 and 62; the map-based Algorithm 1 took 7109):
# allocation counts repeat exactly, wall time on a shared box does not, so
# there is no wall-clock gate. A second gate holds the Algorithm 1 round
# at Ne = 10000 (500 nodes) to 110 allocs/op, twice the 55 it measures
# (96 before the copies went, 148 with the map-based interning), and to
# 4 000 000 B/op against the 3 447 802 it measures: the bytes a round
# allocates decide how often a GC cycle lands inside it, and at the old
# 5 264 600 two of three consecutive rounds in plan-sim often paid for
# one, which is what made that workload's latency_tail_ms spread.
# BenchmarkGeneratorRound (internal/core) runs the whole forced generator
# round on a stub target — snapshot, input, Algorithm 1, the split per
# topology, the apply — at Ne = 1000 and 10000 and fails past 202 and
# 568 allocs/op, twice its 101 and 284. The round's neighbours are gated
# the same way:
# BenchmarkSnapshot (internal/loaddb) takes a load-DB snapshot at
# Ne = 1000 and 10000, cold (every pair new, so it sorts) and warm (no
# pair new, one copy), and BenchmarkNewInput (internal/scheduler) builds a
# scheduling input from a snapshot at both sizes; each fails past twice
# the allocations it measured once the load DB kept its flows dense and
# the input stopped deriving demands (9 / 8 / 37 / 36 and 1 allocs/op;
# the map-based DB took 11 / 11 / 39 / 39, the eager input 50 / 149).
# The FuzzSchedule smoke then spends 15 s holding the
# kernel to the map-based reference Algorithm 1 — same assignment, Stats
# and decision report, and the three per-node constraints wherever no
# relaxation is flagged — and TestScheduleMatchesReferenceAtScale holds it
# to the reference on two Ne = 2000 consolidating rounds, where the
# candidate pass's cursor walks the whole cluster.
# The DES kernel gates are counts too. BenchmarkScheduleFireDepth holds one
# schedule + fire at queue depths 1 / 4 096 / 65 536: the typed path
# (AtEvent) at exactly 0 allocs/op, the callback path (At: one event; the
# Timer stays on the caller's stack when it is not kept) at no more than 2.
# BenchmarkSimulatedEvent (internal/experiment) runs 200 simulated seconds
# of Word Count under T-Storm — the run bench/'s plan-sim times — and fails
# past 0.78 allocs and 34 B per simulated event: twice the 0.392 and 17.1
# it measured once root timeouts became typed events on a FIFO lane and
# the Word Count bolts boxed each word once (the typed-event engine read
# 0.625 and 19.2, the closure engine 6.20 and 458); what is left is the
# bolts' own output values and a root's pending record. The traffic
# matrix's Add, one per simulated send and per live transfer, is held at
# 0 allocs/op once its rows hold the window's pairs. FuzzEventOrder then
# spends 15 s holding the 4-ary heap and its lanes to the container/heap
# queue they replaced on random programs of schedules (on the heap and on
# lanes), cancels, Stops and RunUntil boundaries.
# The DES goldens (TestGoldenDES) pin whole simulated runs — every engine
# counter, every latency bucket bit for bit, a hash of the load database
# after each monitor sample — for each workload under stock Storm and
# T-Storm plus the fault, overload, batching, grouping and two-topology
# scenarios; the fixtures were captured on the container/heap kernel, so a
# pass proves the simulator still fires the same events in the same order.
# They run explicitly (the simulation is one goroutine, so without -race)
# and a diff names the first counter that moved. tstorm-bench regenerates
# figures on parallel workers, each figure its own simulations; a short
# figure set runs that way under the race detector and must write the CSV
# bytes each figure writes alone.
# The experiment package replays full paper figures, which is slow under
# the race detector — hence the raised per-package timeout.
# The eight examples are what a reader runs first, so each is built once
# and run to completion, faulttolerance also in its -live mode; a non-zero
# exit fails the loop. None writes a file, and together they take about
# 40 s on a 2-core box.
# The shuffled pass reorders test execution within every package, catching
# tests that only pass because an earlier test left state behind.
# The bench module (bench/, its own go.mod) compiles against this tree's
# internal packages by name; vetting it builds it and its tests, so a
# renamed or reshaped name bench/ uses fails here, not in the scored run.
set -eux
cd "$(dirname "$0")"
test -z "$(gofmt -l .)"
go build ./...
go vet ./...
(cd bench && go vet ./...)
go test -count=1 -run 'TestNoDeadInternalCode|TestNoDeadInternalFields|TestDocsNameExistingDeclarations' .
go test -race -count=1 -run 'TestRoutingSnapshotStress|TestRouteObservesSinglePlacement|TestEmissionsFlowWhileEngineLockHeld|TestMonitorStopConcurrent' ./internal/live
go test -race -count=1 -run 'TestScrapeUnderChurnStress|TestHealthUnderChurnStress' ./internal/telemetry
go test -race -count=50 -run 'TestReadersRaceWriter' ./internal/tsdb
go test -race -count=2 -run 'TestChaos|TestReliabilityParityShape' ./internal/live
go test -race -count=20 -run 'TestQueueBound|TestQueueCount|TestSaturatedWordCountApplyDrains|TestMonitorGaugesAndSampleEvents' ./internal/live
go test -race -count=1 -run 'TestDistributed|TestTracedFrameDelivered' ./internal/dist
go test -count=1 -run '^$' -bench 'BenchmarkEmit|BenchmarkPoolRoundTrip' -benchmem ./internal/live |
	awk '/^Benchmark(Emit|PoolRoundTrip)/ { seen++; allocs = $(NF-1); budget = ($1 ~ /^BenchmarkEmit/) ? 1 : 0
	       if (allocs + 0 > budget) { print "emit-path allocation regression: " $1 " at " allocs " allocs/op (budget " budget ")"; bad = 1 }
	       else { print "emit-path allocs/op: " $1 " " allocs " (budget " budget ")" } }
	     END { if (seen < 3) { print "emit-path allocation gate: expected BenchmarkEmit, BenchmarkEmitTraced and BenchmarkPoolRoundTrip, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkIngest' -benchmem -benchtime 20000x ./internal/live |
	awk '/^BenchmarkIngest/ { seen++; allocs = $(NF-1)
	       if (allocs + 0 > 0) { print "wire-hop allocation regression: " $1 " at " allocs " allocs/frame (budget 0)"; bad = 1 }
	       else { print "wire-hop allocs/frame: " $1 " " allocs " (budget 0)" } }
	     END { if (seen != 3) { print "wire-hop allocation gate: expected 3 BenchmarkIngest sizes, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkWireHop' -benchtime 1000000x ./internal/dist |
	awk '/^BenchmarkWireHop/ { seen++; allocs = -1
	       for (i = 2; i < NF; i++) if ($(i+1) == "allocs/frame") allocs = $i
	       if (allocs < 0 || allocs + 0 >= 0.5) { print "wire-hop allocation regression: " $1 " at " allocs " allocs/frame (budget < 0.5)"; bad = 1 }
	       else { print "wire-hop allocs/frame: " $1 " " allocs " (budget < 0.5)" } }
	     END { if (seen != 3) { print "wire-hop allocation gate: expected 3 BenchmarkWireHop sizes, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -fuzz 'FuzzDecodeValues' -fuzztime 15s -run '^$' ./internal/live
go test -count=1 -fuzz 'FuzzDecodeFrame' -fuzztime 15s -run '^$' ./internal/live
go test -count=1 -run '^$' -bench 'Benchmark(Algorithm1|RStorm|Hetero)/^Ne=1000$' -benchmem -benchtime 3x . |
	awk 'BEGIN { budget["BenchmarkAlgorithm1"] = 54; budget["BenchmarkRStorm"] = 104; budget["BenchmarkHetero"] = 54 }
	     /^Benchmark/ { seen++; split($1, name, "/"); allocs = $(NF-1); b = budget[name[1]]
	       if (allocs + 0 > b) { print "scheduler-round allocation regression: " $1 " at " allocs " allocs/op (budget " b ")"; bad = 1 }
	       else { print "scheduler-round allocs/op: " $1 " " allocs " (budget " b ")" } }
	     END { if (seen != 3) { print "scheduler-round allocation gate: expected 3 benchmarks, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkAlgorithm1/^Ne=10000$' -benchmem -benchtime 3x . |
	awk '/^BenchmarkAlgorithm1/ { seen++; allocs = $(NF-1); bytes = $(NF-3)
	       if (allocs + 0 > 110 || bytes + 0 > 4000000) { print "scheduler-round allocation regression: " $1 " at " allocs " allocs/op, " bytes " B/op (budget 110, 4000000)"; bad = 1 }
	       else { print "scheduler-round allocs/op, B/op: " $1 " " allocs ", " bytes " (budget 110, 4000000)" } }
	     END { if (seen != 1) { print "scheduler-round allocation gate: expected BenchmarkAlgorithm1 at Ne=10000, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkGeneratorRound' -benchmem -benchtime 3x ./internal/core |
	awk 'BEGIN { budget["Ne=1000"] = 202; budget["Ne=10000"] = 568 }
	     /^BenchmarkGeneratorRound/ { seen++; split($1, part, "/"); key = part[2]; sub(/-[0-9]+$/, "", key); allocs = $(NF-1); b = budget[key]
	       if (allocs + 0 > b) { print "generator-round allocation regression: " $1 " at " allocs " allocs/op (budget " b ")"; bad = 1 }
	       else { print "generator-round allocs/op: " $1 " " allocs " (budget " b ")" } }
	     END { if (seen != 2) { print "generator-round allocation gate: expected BenchmarkGeneratorRound at Ne=1000 and 10000, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkSnapshot' -benchmem -benchtime 5x ./internal/loaddb |
	awk 'BEGIN { budget["cold/Ne=1000"] = 18; budget["warm/Ne=1000"] = 16; budget["cold/Ne=10000"] = 74; budget["warm/Ne=10000"] = 72 }
	     /^BenchmarkSnapshot/ { seen++; split($1, part, "/"); key = part[2] "/" part[3]; sub(/-[0-9]+$/, "", key); allocs = $(NF-1); b = budget[key]
	       if (allocs + 0 > b) { print "load-DB snapshot allocation regression: " $1 " at " allocs " allocs/op (budget " b ")"; bad = 1 }
	       else { print "load-DB snapshot allocs/op: " $1 " " allocs " (budget " b ")" } }
	     END { if (seen != 4) { print "load-DB snapshot allocation gate: expected 4 benchmarks, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkNewInput' -benchmem -benchtime 1000x ./internal/scheduler |
	awk '/^BenchmarkNewInput/ { seen++; allocs = $(NF-1)
	       if (allocs + 0 > 2) { print "scheduling-input allocation regression: " $1 " at " allocs " allocs/op (budget 2)"; bad = 1 }
	       else { print "scheduling-input allocs/op: " $1 " " allocs " (budget 2)" } }
	     END { if (seen != 2) { print "scheduling-input allocation gate: expected BenchmarkNewInput at Ne=1000 and 10000, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -fuzz 'FuzzSchedule' -fuzztime 15s -run '^$' ./internal/core
go test -count=1 -run 'TestScheduleMatchesReferenceAtScale' ./internal/core
go test -count=1 -run '^$' -bench 'BenchmarkScheduleFireDepth' -benchmem -benchtime 300000x ./internal/sim |
	awk '/^BenchmarkScheduleFireDepth/ { seen++; allocs = $(NF-1); budget = ($1 ~ /\/typed\//) ? 0 : 2
	       if (allocs + 0 > budget) { print "DES kernel allocation regression: " $1 " at " allocs " allocs/op (budget " budget ")"; bad = 1 }
	       else { print "DES kernel allocs/op: " $1 " " allocs " (budget " budget ")" } }
	     END { if (seen != 6) { print "DES kernel allocation gate: expected 3 depths x 2 paths, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkSimulatedEvent$' -benchtime 1x ./internal/experiment |
	awk 'BEGIN { budget["allocs/event"] = 0.78; budget["B/event"] = 34 }
	     /^BenchmarkSimulatedEvent/ { for (i = 2; i < NF; i++) if ($(i+1) in budget) { seen++; u = $(i+1)
	         if ($i + 0 > budget[u]) { print "DES allocation regression: " $i " " u " (budget " budget[u] ")"; bad = 1 }
	         else { print "DES " u ": " $i " (budget " budget[u] ")" } } }
	     END { if (seen != 2) { print "DES allocation gate: expected allocs/event and B/event, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -run '^$' -bench 'BenchmarkTrafficMatrixAdd$' -benchmem ./internal/metrics |
	awk '/^BenchmarkTrafficMatrixAdd/ { seen++; allocs = $(NF-1)
	       if (allocs + 0 > 0) { print "traffic matrix allocation regression: " allocs " allocs/op (budget 0)"; bad = 1 }
	       else { print "traffic matrix allocs/op: " allocs " (budget 0)" } }
	     END { if (seen != 1) { print "traffic matrix allocation gate: expected BenchmarkTrafficMatrixAdd, saw " seen + 0; exit 1 }
	           exit bad }'
go test -count=1 -fuzz 'FuzzEventOrder' -fuzztime 15s -run '^$' ./internal/sim
go test -race -count=1 -run 'TestGoldenAssignments' ./internal/scheduler
go test -race -count=1 -run 'TestContendersOnTwoTopologies' ./internal/core
go test -count=1 -run 'TestGoldenDES' ./internal/experiment
go test -race -count=1 -run 'TestHotSwapMidRunReschedulesCleanly|TestGeneratorMatchesReference|TestWallClockGeneratorUnderConcurrentCalls' ./internal/live
go test -race -count=1 -run 'TestRunFiguresInParallel' ./cmd/tstorm-bench
go run ./cmd/tstorm-bench -arena -duration 250ms
examples=$(mktemp -d)
trap 'rm -rf "$examples"' EXIT
go build -o "$examples" ./examples/...
for ex in "$examples"/*; do "$ex"; done
"$examples/faulttolerance" -live
go test -shuffle=on -count=1 ./...
go test -race -timeout 30m ./...
