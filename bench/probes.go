package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/acker"
	"tstorm/internal/cluster"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/health"
	"tstorm/internal/live"
	"tstorm/internal/metrics"
	"tstorm/internal/scheduler"
	"tstorm/internal/sim"
	"tstorm/internal/telemetry"
	"tstorm/internal/textdata"
	"tstorm/internal/topology"
	"tstorm/internal/tracing"
	"tstorm/internal/tsdb"
	"tstorm/internal/tuple"
)

// The probes of a traced pass: each calls one layer's exported functions
// in a loop, from outside, and reports the cost per call. They give the
// per-tuple cost budget under cpu_us_per_unit; spans inside the program
// are a later change.

// probeCalls is how often each probe calls its layer; tests shrink it.
var probeCalls = 1_000_000

// traceMetrics writes a traced pass's spans to the span file and turns
// those whose tree started in [from, to) Unix nanoseconds — the stretch
// the workload's headline figures come from — into per-layer metrics.
func traceMetrics(res *result, o opts, spans []span, from, to int64, emitNs *hist) {
	if err := writeSpanFile(o, res, spans); err != nil {
		res.problem("%v", err)
	}
	rootStart := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			rootStart[s.ID] = s.Start
		}
	}
	var within []span
	for _, s := range spans {
		if at, ok := rootStart[s.Root]; ok && at >= from && at < to {
			within = append(within, s)
		}
	}
	sum := analyse(within)
	if v, ok := sum.hopWait.quantile(0.5); ok {
		res.setN("live.hop_wait_ms.p50", "ms", v/1e6, int(sum.hopWait.n))
	}
	if v, ok := sum.hopWait.quantile(0.99); ok {
		res.setN("live.hop_wait_ms.p99", "ms", v/1e6, int(sum.hopWait.n))
	}
	if emitNs != nil {
		if v, ok := emitNs.quantile(0.5); ok {
			res.setN("live.emit_call_ns_p50", "ns", v, int(emitNs.n))
		}
	}
	if sum.roots == 0 {
		return // unanchored: no root ever closes, so no path to account for
	}
	// How much of a line's latency the spans explain: per complete tree,
	// self times and hop waits along its critical chain.
	res.setN("live.path_self_ms", "ms", median(sum.pathSelfNs)/1e6, sum.roots)
	res.setN("live.path_wait_ms", "ms", median(sum.pathWaitNs)/1e6, sum.roots)
}

// writeSpanFile writes a traced pass's spans as JSON lines next to the
// other run artefacts and says where.
func writeSpanFile(o opts, res *result, spans []span) error {
	path := filepath.Join(o.spanDir, "spans-"+res.Workload+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	return nil
}

// workloadTuples is the tuple mix the Word Count moves: for each corpus
// line from the seed's offset on, its words as split emits them and the
// (word, count) pairs count emits.
func workloadTuples(seed uint64, n int) []tuple.Values {
	out := make([]tuple.Values, 0, n)
	counts := make(map[string]int64)
	for i := corpusOffset(seed); len(out) < n; i++ {
		for _, w := range textdata.SplitWords(textdata.Line(i)) {
			counts[w]++
			out = append(out, tuple.Values{w}, tuple.Values{w, counts[w]})
		}
	}
	return out[:n]
}

// codecProbe runs workload tuples through the wire codec.
func codecProbe(res *result, seed uint64) {
	tuples := workloadTuples(seed, 10_000)
	encoded := make([][]byte, len(tuples))
	var bytes int
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		j := i % len(tuples)
		buf, extras := live.EncodeValues(tuples[j])
		if len(extras) != 0 {
			res.problem("codec: workload tuple %v did not encode natively", tuples[j])
			return
		}
		encoded[j] = buf
		bytes += len(buf)
	}
	res.setN("live.codec_encode_ns_per_tuple", "ns", float64(time.Since(t0))/float64(probeCalls), probeCalls)
	res.setN("live.codec_bytes_per_tuple", "B", float64(bytes)/float64(probeCalls), probeCalls)
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		vals, err := live.DecodeValues(encoded[i%len(encoded)], nil)
		if err != nil || len(vals) != len(tuples[i%len(tuples)]) {
			res.problem("codec: decode of workload tuple failed: %v", err)
			return
		}
	}
	res.setN("live.codec_decode_ns_per_tuple", "ns", float64(time.Since(t0))/float64(probeCalls), probeCalls)
}

// stubEmitter counts emissions and drops them.
type stubEmitter struct{ n int }

func (e *stubEmitter) Emit(string, tuple.Values)                    { e.n++ }
func (e *stubEmitter) EmitDirect(string, int, string, tuple.Values) { e.n++ }

// operatorProbe calls the Word Count's bolts directly, with no engine
// under them: the floor under cpu_us_per_unit. It returns the operator
// time per bolt-processed tuple, weighted by the topology's mix (one split
// execution per line, one count and one sink execution per word).
func operatorProbe(res *result, seed uint64) (weightedNs float64) {
	g := newLoadGen(readers, corpusOffset(seed), false)
	app, err := wordCountApp(g, docstore.NewStore(), 0, nil)
	if err != nil {
		res.problem("operator probe: %v", err)
		return 0
	}
	ctx := &engine.Context{Topology: topoName, Parallelism: 1}
	em := &stubEmitter{}
	time1 := func(component string, inputs []tuple.Values) float64 {
		b := app.Bolts[component]()
		b.Prepare(ctx)
		t0 := time.Now()
		for i := 0; i < probeCalls; i++ {
			b.Execute(tuple.Tuple{Values: inputs[i%len(inputs)]}, em)
		}
		return float64(time.Since(t0)) / float64(probeCalls)
	}
	var lines, words, pairs []tuple.Values
	for i := 0; i < textdata.NumLines(); i++ {
		lines = append(lines, tuple.Values{textdata.Line(i)})
	}
	for _, t := range workloadTuples(seed, 10_000) {
		if len(t) == 1 {
			words = append(words, t)
		} else {
			pairs = append(pairs, t)
		}
	}
	before := em.n
	split := time1("split", lines)
	wordsPerLine := float64(em.n-before) / float64(probeCalls)
	count := time1("count", words)
	sink := time1("mongo", pairs)
	res.setN("workloads.split_ns_per_line", "ns", split, probeCalls)
	res.setN("workloads.count_ns_per_word", "ns", count, probeCalls)
	res.setN("workloads.sink_ns_per_word", "ns", sink, probeCalls)
	return (split + wordsPerLine*(count+sink)) / (1 + 2*wordsPerLine)
}

// ackPathProbes time the pieces of the ack and observability paths that
// run per tuple or per tree.
func ackPathProbes(res *result) {
	// One tree of the Word Count: Init plus an Ack per edge. Edge ids are
	// random 64-bit values, as in the engine, so no partial XOR is zero.
	const edges = 11
	trees := probeCalls / (edges + 1)
	tr := acker.NewTracker()
	rng := rand.New(rand.NewPCG(1, 2))
	var ids [edges]tuple.ID
	t0 := time.Now()
	for i := 1; i <= trees; i++ {
		root := tuple.ID(i)
		var xor tuple.ID
		for e := range ids {
			ids[e] = tuple.ID(rng.Uint64() | 1)
			xor ^= ids[e]
		}
		tr.Init(root, xor, 0, sim.Time(i))
		done := false
		for _, id := range ids {
			_, done = tr.Ack(root, id, sim.Time(i))
		}
		if !done {
			res.problem("acker: tree %d did not complete after %d acks", i, edges)
			return
		}
	}
	res.setN("acker.tree_ns", "ns", float64(time.Since(t0))/float64(trees), trees)

	h := metrics.NewProcLatencyHistogram()
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		h.Add(float64(i%1000) / 100)
	}
	res.setN("metrics.atomichist_add_ns", "ns", float64(time.Since(t0))/float64(probeCalls), probeCalls)

	series := tsdb.NewDB(0).Register("probe", tsdb.Gauge)
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		series.Append(int64(i), float64(i))
	}
	res.setN("tsdb.append_ns", "ns", float64(time.Since(t0))/float64(probeCalls), probeCalls)

	ring := tracing.NewRing(1024)
	var scratch []tracing.Span
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		ring.Push(tracing.Span{Root: uint64(i), Self: uint64(i)})
		if i%512 == 511 {
			scratch = ring.Drain(scratch[:0])
		}
	}
	res.setN("tracing.ring_push_ns", "ns", float64(time.Since(t0))/float64(probeCalls), probeCalls)
	if d := ring.Dropped(); d != 0 {
		res.problem("tracing ring dropped %d of %d spans although drained", d, probeCalls)
	}
}

// scraper attaches the operator-facing observability surface to a
// running engine — telemetry server scraped at 1 Hz, tsdb collector and
// SLO engine ticked at 1 Hz — and times each.
type scraper struct {
	srv      *telemetry.Server
	stopCh   chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	scrapeMs []float64
	bytes    []float64
	tickUs   []float64
	err      error
}

func startScraper(eng *live.Engine, mon *live.Monitor) (*scraper, error) {
	srv, err := telemetry.NewServer(telemetry.Config{Engine: eng, Monitor: mon})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	db := tsdb.NewDB(0)
	col := health.NewCollector(db, health.Sources{
		Totals:            eng.Totals,
		PendingRoots:      eng.PendingRoots,
		QueueSaturation:   func() (float64, int) { return eng.QueueSaturation(0.8) },
		CompletionLatency: eng.CompletionLatencySnapshot,
	})
	heng := health.New(health.StandardRules(db, health.RuleOptions{}), nil)
	s := &scraper{srv: srv, stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		url := "http://" + srv.Addr() + "/metrics"
		for {
			select {
			case <-s.stopCh:
				return
			case now := <-tk.C:
				t0 := time.Now()
				col.Collect(now)
				heng.Evaluate(now)
				tick := float64(time.Since(t0)) / 1e3
				t0 = time.Now()
				n, err := scrapeOnce(url)
				s.mu.Lock()
				if err != nil {
					s.err = err
				} else {
					s.scrapeMs = append(s.scrapeMs, msSince(t0))
					s.bytes = append(s.bytes, float64(n))
				}
				s.tickUs = append(s.tickUs, tick)
				s.mu.Unlock()
			}
		}
	}()
	return s, nil
}

func scrapeOnce(url string) (int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.Copy(io.Discard, resp.Body)
}

// stop ends the scraping and reports what it measured.
func (s *scraper) stop(res *result) {
	close(s.stopCh)
	s.wg.Wait()
	if err := s.srv.Close(); err != nil {
		res.problem("telemetry server close: %v", err)
	}
	if s.err != nil {
		res.problem("scrape: %v", s.err)
	}
	res.setSamples("telemetry.scrape_ms", "ms", s.scrapeMs)
	res.setSamples("telemetry.scrape_bytes", "B", s.bytes)
	res.setSamples("health.tick_us", "us", s.tickUs)
}

// loopbackSink joins two LocalSlots-restricted engines in one process:
// a frame one of them sends is handed straight to the other's Ingest,
// timed. It stands where the dist layer's sockets would.
type loopbackSink struct {
	owner    map[cluster.SlotID]*live.Engine
	frames   atomic.Int64
	ingestNs atomic.Int64
	failed   atomic.Int64
}

func (s *loopbackSink) Send(to cluster.SlotID, frame []byte) bool {
	eng := s.owner[to]
	if eng == nil {
		return false
	}
	t0 := time.Now()
	err := eng.Ingest(frame)
	s.ingestNs.Add(int64(time.Since(t0)))
	s.frames.Add(1)
	if err != nil {
		s.failed.Add(1)
		return false
	}
	return true
}

// ingestProbe gives each of two engines one single-slot node and runs the
// closed loop across the boundary for a second: every transfer that leaves
// a slot is encoded into a frame by one engine and ingested by the other.
func ingestProbe(res *result, seed uint64) error {
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		return err
	}
	sink := &loopbackSink{owner: make(map[cluster.SlotID]*live.Engine)}
	g := newLoadGen(readers, corpusOffset(seed), false)
	store := docstore.NewStore()
	slots := cl.Slots()
	halves := [][]cluster.SlotID{slots[:len(slots)/2], slots[len(slots)/2:]}
	var engines []*live.Engine
	for _, local := range halves {
		// Both engines submit the identical topology, so their dense
		// executor indexes agree, as in a dist fleet.
		app, err := wordCountApp(g, store, 0, nil)
		if err != nil {
			return err
		}
		in := scheduler.NewInput([]*topology.Topology{app.Topology}, cl, nil, 0)
		initial, err := scheduler.RoundRobin{}.Schedule(in)
		if err != nil {
			return err
		}
		cfg := live.DefaultConfig()
		cfg.Seed = seed
		cfg.LocalSlots = local
		cfg.Remote = sink
		eng, err := live.NewEngine(cfg, cl)
		if err != nil {
			return err
		}
		if err := eng.Submit(app, initial); err != nil {
			return err
		}
		for _, s := range local {
			sink.owner[s] = eng
		}
		engines = append(engines, eng)
	}
	for _, eng := range engines {
		if err := eng.Start(); err != nil {
			return err
		}
		defer eng.Stop()
	}
	g.closedLoop()
	time.Sleep(time.Second)
	g.stop()
	for _, eng := range engines {
		eng.HaltSpouts()
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !(engines[0].Quiesce(20*time.Millisecond) && engines[1].Quiesce(20*time.Millisecond)) {
	}
	var crossed int64
	for _, eng := range engines {
		crossed += eng.Totals().InterNodeSent
	}
	frames := sink.frames.Load()
	if frames == 0 || crossed == 0 || sink.failed.Load() != 0 {
		res.problem("ingest probe: %d frames, %d tuples crossed, %d ingests failed", frames, crossed, sink.failed.Load())
		return nil
	}
	res.setN("live.ingest_ns_per_tuple", "ns", float64(sink.ingestNs.Load())/float64(crossed), int(crossed))
	res.setN("live.frame_tuples_per_frame", "count", float64(crossed)/float64(frames), int(frames))
	return nil
}
