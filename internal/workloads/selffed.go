package workloads

import (
	"fmt"
	"sort"
	"sync"

	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/textdata"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// SelfFedWordCountConfig parameterizes the self-fed Word Count variant used
// by the live (wall-clock) runtime: the reader spout synthesizes corpus
// lines itself instead of popping a Redis list, so the pipeline is always
// busy and measured throughput reflects processing (and serialization)
// capacity rather than feed rate.
type SelfFedWordCountConfig struct {
	Spouts    int
	Splitters int
	Counters  int
	Mongos    int
	Workers   int
	// Sink is the Mongo-like store running counts are saved to.
	Sink *docstore.Store
	// Reliable switches the reader to at-least-once delivery: every line
	// is anchored to a spout root tracked by ackers, failed lines are
	// replayed, and the reader's progress ledger lives outside the spout
	// instance so it survives worker crashes and supervised restarts.
	Reliable bool
	// Ackers is the acker executor count (Reliable only; default 4,
	// sharded by root ID so ack traffic never serializes on one task).
	Ackers int
	// MaxPending caps each reader's outstanding un-acked lines
	// (Reliable only; default 128).
	MaxPending int
	// Limit stops each reader after it has had that many distinct lines
	// acked or put in flight (Reliable only; 0 = unbounded).
	Limit int
}

// DefaultSelfFedWordCountConfig scales the paper's Word Count down to a
// size a single host executes comfortably.
func DefaultSelfFedWordCountConfig() SelfFedWordCountConfig {
	return SelfFedWordCountConfig{
		Spouts:    2,
		Splitters: 4,
		Counters:  4,
		Mongos:    2,
		Workers:   8,
	}
}

// corpusSpout emits corpus lines in an interleaved sequence: spout i of p
// emits lines i, i+p, i+2p, ... so parallel spouts never duplicate work.
// It never idles; the bounded downstream queues provide the rate control.
type corpusSpout struct {
	idx, step, seq int
}

var _ engine.Spout = (*corpusSpout)(nil)

func (s *corpusSpout) Open(ctx *engine.Context) {
	s.idx, s.step = ctx.Index, ctx.Parallelism
}

func (s *corpusSpout) NextTuple(em engine.SpoutEmitter) {
	em.Emit("", tuple.Values{textdata.Line(s.idx + s.seq*s.step)})
	s.seq++
}

func (s *corpusSpout) Ack(any)  {}
func (s *corpusSpout) Fail(any) {}

// lineLedger is one reader's replay state, shared across worker
// incarnations: the spout instance dies with its worker, the ledger does
// not, so a supervised restart resumes exactly where the crashed
// incarnation left off instead of re-reading the corpus from line zero.
type lineLedger struct {
	mu       sync.Mutex
	next     int // next fresh per-reader sequence
	inflight map[int]bool
	replays  []int
	opens    int
	acked    int // distinct sequences acked
}

// SelfFedAudit reads the reliable readers' shared ledgers so a harness can
// check conservation from outside the topology: once OutstandingLines
// reaches zero, AckedLines is exactly the number of distinct corpus lines
// delivered at least once.
type SelfFedAudit struct{ ledgers []*lineLedger }

// AckedLines counts distinct lines acked across all readers.
func (a *SelfFedAudit) AckedLines() int {
	n := 0
	for _, led := range a.ledgers {
		led.mu.Lock()
		n += led.acked
		led.mu.Unlock()
	}
	return n
}

// OutstandingLines counts lines emitted (or queued for replay) that have
// not been acked yet.
func (a *SelfFedAudit) OutstandingLines() int {
	n := 0
	for _, led := range a.ledgers {
		led.mu.Lock()
		n += len(led.inflight)
		led.mu.Unlock()
	}
	return n
}

// Restarts counts reader re-opens beyond each incarnation's first.
func (a *SelfFedAudit) Restarts() int {
	n := 0
	for _, led := range a.ledgers {
		led.mu.Lock()
		if led.opens > 1 {
			n += led.opens - 1
		}
		led.mu.Unlock()
	}
	return n
}

// reliableCorpusSpout is corpusSpout with at-least-once semantics: lines
// are emitted with a message ID, failed lines are queued for replay, and a
// fresh incarnation (opens > 1) re-issues everything the dead worker had
// in flight — those roots were lost with its queues, so their Fail may
// never arrive.
type reliableCorpusSpout struct {
	ledgers   []*lineLedger
	led       *lineLedger
	idx, step int
	limit     int
}

var _ engine.Spout = (*reliableCorpusSpout)(nil)

func (s *reliableCorpusSpout) Open(ctx *engine.Context) {
	s.idx, s.step = ctx.Index, ctx.Parallelism
	s.led = s.ledgers[ctx.Index]
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	s.led.opens++
	if s.led.opens > 1 {
		seqs := make([]int, 0, len(s.led.inflight))
		for seq := range s.led.inflight {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		s.led.replays = seqs
	}
}

func (s *reliableCorpusSpout) NextTuple(em engine.SpoutEmitter) {
	s.led.mu.Lock()
	// A failed line whose first attempt completed late is acked already:
	// replaying it would count it twice.
	for len(s.led.replays) > 0 && !s.led.inflight[s.led.replays[0]] {
		s.led.replays = s.led.replays[1:]
	}
	var seq int
	switch {
	case len(s.led.replays) > 0:
		seq = s.led.replays[0]
		s.led.replays = s.led.replays[1:]
	case s.limit == 0 || s.led.next < s.limit:
		seq = s.led.next
		s.led.next++
	default:
		s.led.mu.Unlock()
		return
	}
	s.led.inflight[seq] = true
	s.led.mu.Unlock()
	em.EmitWithID("", tuple.Values{textdata.Line(s.idx + seq*s.step)}, seq)
}

func (s *reliableCorpusSpout) Ack(msgID any) {
	seq := msgID.(int)
	s.led.mu.Lock()
	if s.led.inflight[seq] {
		delete(s.led.inflight, seq)
		s.led.acked++
	}
	s.led.mu.Unlock()
}

func (s *reliableCorpusSpout) Fail(msgID any) {
	seq := msgID.(int)
	s.led.mu.Lock()
	if s.led.inflight[seq] {
		s.led.replays = append(s.led.replays, seq)
	}
	s.led.mu.Unlock()
}

// NewSelfFedWordCount builds the self-fed Word Count app: generator spout →
// SplitSentence (local-or-shuffle) → WordCount (fields on word) → Mongo
// sink (local-or-shuffle). The component code is shared with the Redis-fed
// variant; the shuffle edges use Storm's locality-aware variant so that
// traffic-aware placement pays off twice — co-located pairs skip
// serialization AND local-or-shuffle then keeps their tuples local.
func NewSelfFedWordCount(cfg SelfFedWordCountConfig) (*engine.App, error) {
	app, _, err := buildSelfFedWordCount(cfg)
	return app, err
}

// NewReliableSelfFedWordCount builds the at-least-once variant and also
// returns the audit handle over the readers' shared ledgers, so callers
// (chaos benchmarks, fault-tolerance demos) can verify that crashing
// workers lost no lines.
func NewReliableSelfFedWordCount(cfg SelfFedWordCountConfig) (*engine.App, *SelfFedAudit, error) {
	cfg.Reliable = true
	return buildSelfFedWordCount(cfg)
}

func buildSelfFedWordCount(cfg SelfFedWordCountConfig) (*engine.App, *SelfFedAudit, error) {
	if cfg.Sink == nil {
		return nil, nil, fmt.Errorf("workloads: self-fed word count needs a sink")
	}
	b := topology.NewBuilder("wordcount-live", cfg.Workers)
	if cfg.Reliable {
		ackers := cfg.Ackers
		if ackers <= 0 {
			ackers = 4
		}
		b.SetAckers(ackers)
	}
	b.Spout("reader", cfg.Spouts).Output("default", "line")
	b.Bolt("split", cfg.Splitters).LocalOrShuffle("reader").Output("default", "word")
	b.Bolt("count", cfg.Counters).Fields("split", "word").Output("default", "word", "count")
	b.Bolt("mongo", cfg.Mongos).LocalOrShuffle("count")
	top, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	app := &engine.App{
		Topology: top,
		Spouts: map[string]func() engine.Spout{
			"reader": func() engine.Spout { return &corpusSpout{} },
		},
		Bolts: map[string]func() engine.Bolt{
			"split": func() engine.Bolt { return splitSentenceBolt{} },
			"count": func() engine.Bolt { return &wordCountBolt{} },
			"mongo": func() engine.Bolt { return &mongoWordBolt{sink: cfg.Sink, coll: "words"} },
		},
	}
	var audit *SelfFedAudit
	if cfg.Reliable {
		maxPending := cfg.MaxPending
		if maxPending <= 0 {
			maxPending = 128
		}
		ledgers := make([]*lineLedger, cfg.Spouts)
		for i := range ledgers {
			ledgers[i] = &lineLedger{inflight: make(map[int]bool)}
		}
		app.Spouts["reader"] = func() engine.Spout {
			return &reliableCorpusSpout{ledgers: ledgers, limit: cfg.Limit}
		}
		app.MaxPending = map[string]int{"reader": maxPending}
		audit = &SelfFedAudit{ledgers: ledgers}
	}
	return app, audit, nil
}
