// Package workloads implements the three data-processing applications the
// paper evaluates with — Throughput Test, Word Count (stream version) and
// Log Stream Processing — plus the small chain topology of the
// problem-demonstration experiments, with per-tuple CPU costs calibrated
// to the paper's testbed (2.0 GHz Xeon cores).
package workloads

import (
	"fmt"
	"strings"
	"time"

	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// ThroughputConfig parameterizes the Throughput Test topology [10]: a
// spout emitting fixed-size random strings, an identity bolt, and a
// counter bolt. The defaults are the paper's §V settings.
type ThroughputConfig struct {
	Spouts       int
	Identities   int
	Counters     int
	Ackers       int
	Workers      int
	PayloadBytes int
	// EmitInterval is the spout's rate-control sleep (paper: 5 ms).
	EmitInterval time.Duration
}

// DefaultThroughputConfig returns the paper's configuration: 40 workers,
// 5 spout / 15 identity / 15 counter executors and 10 ackers, 10 KB
// payloads, 5 ms rate control.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Spouts:       5,
		Identities:   15,
		Counters:     15,
		Ackers:       10,
		Workers:      40,
		PayloadBytes: 10000,
		EmitInterval: 5 * time.Millisecond,
	}
}

// throughputSpout emits fixed-size strings. The payload content is a
// constant (the engine only accounts for its size), so replays simply
// re-emit it.
type throughputSpout struct {
	payload     string
	seq         int
	outstanding map[int]bool
	replays     []int
}

var _ engine.Spout = (*throughputSpout)(nil)

func (s *throughputSpout) Open(*engine.Context) {
	s.outstanding = make(map[int]bool)
}

func (s *throughputSpout) NextTuple(em engine.SpoutEmitter) {
	if len(s.replays) > 0 {
		id := s.replays[0]
		s.replays = s.replays[1:]
		em.EmitWithID("", tuple.Values{s.payload}, id)
		return
	}
	s.seq++
	s.outstanding[s.seq] = true
	em.EmitWithID("", tuple.Values{s.payload}, s.seq)
}

func (s *throughputSpout) Ack(msgID any) {
	if id, ok := msgID.(int); ok {
		delete(s.outstanding, id)
	}
}

func (s *throughputSpout) Fail(msgID any) {
	if id, ok := msgID.(int); ok && s.outstanding[id] {
		s.replays = append(s.replays, id)
	}
}

// identityBolt re-emits its input unchanged.
type identityBolt struct{}

var _ engine.Bolt = identityBolt{}

func (identityBolt) Prepare(*engine.Context) {}

func (identityBolt) Execute(in tuple.Tuple, em engine.Emitter) {
	em.Emit("", in.Values)
}

// counterBolt is the paper's counter stage: a sink whose work the engine
// charges through the component's CPU cost.
type counterBolt struct{}

var _ engine.Bolt = (*counterBolt)(nil)

func (b *counterBolt) Prepare(*engine.Context) {}

func (b *counterBolt) Execute(tuple.Tuple, engine.Emitter) {}

// NewThroughputTest builds the Throughput Test app. The bolts "are
// designed to do little work" (§V), so their CPU costs are small and the
// workload is communication-dominated — the lightly-loaded case of the
// paper's headline claim.
func NewThroughputTest(cfg ThroughputConfig) (*engine.App, error) {
	if cfg.PayloadBytes <= 0 || cfg.EmitInterval <= 0 {
		return nil, fmt.Errorf("workloads: bad throughput config %+v", cfg)
	}
	b := topology.NewBuilder("throughput", cfg.Workers)
	b.SetAckers(cfg.Ackers)
	b.Spout("spout", cfg.Spouts).Output("default", "str")
	b.Bolt("identity", cfg.Identities).Shuffle("spout").Output("default", "str")
	b.Bolt("counter", cfg.Counters).Shuffle("identity")
	top, err := b.Build()
	if err != nil {
		return nil, err
	}
	payload := strings.Repeat("x", cfg.PayloadBytes)
	return &engine.App{
		Topology: top,
		Spouts: map[string]func() engine.Spout{
			"spout": func() engine.Spout { return &throughputSpout{payload: payload} },
		},
		Bolts: map[string]func() engine.Bolt{
			"identity": func() engine.Bolt { return identityBolt{} },
			"counter":  func() engine.Bolt { return &counterBolt{} },
		},
		Costs: map[string]engine.CostFn{
			// Generating a 10 KB random string.
			"spout": engine.ConstCost(engine.Cycles(300*time.Microsecond, 2000)),
			// Forwarding / counting: near-trivial work.
			"identity": engine.ConstCost(engine.Cycles(60*time.Microsecond, 2000)),
			"counter":  engine.ConstCost(engine.Cycles(30*time.Microsecond, 2000)),
		},
		SpoutInterval: map[string]time.Duration{"spout": cfg.EmitInterval},
	}, nil
}

// ChainConfig parameterizes the small chain topology of the Fig. 2/3
// problem-demonstration experiments: one spout followed by identity bolts
// in a line.
type ChainConfig struct {
	Spouts       int
	Bolts        int // chain length (1 executor per bolt by default)
	BoltPar      int
	Ackers       int
	Workers      int
	PayloadBytes int
	EmitInterval time.Duration
	// BoltCostCycles overrides the per-tuple CPU cost of every chain bolt
	// (0 = the light default). Fig. 3 uses a heavy value to overload a
	// single bolt executor.
	BoltCostCycles float64
}

// DefaultChainConfig returns the Fig. 2 setup: 1 spout, 4 bolts ×1
// executor, 5 ackers.
func DefaultChainConfig() ChainConfig {
	return ChainConfig{
		Spouts:       1,
		Bolts:        4,
		BoltPar:      1,
		Ackers:       5,
		Workers:      1,
		PayloadBytes: 10000,
		EmitInterval: 5 * time.Millisecond,
	}
}

// NewChain builds the chain topology.
func NewChain(cfg ChainConfig) (*engine.App, error) {
	if cfg.Bolts < 1 {
		return nil, fmt.Errorf("workloads: chain needs at least one bolt")
	}
	if cfg.BoltPar < 1 {
		cfg.BoltPar = 1
	}
	b := topology.NewBuilder("chain", cfg.Workers)
	b.SetAckers(cfg.Ackers)
	b.Spout("spout", cfg.Spouts).Output("default", "str")
	prev := "spout"
	bolts := map[string]func() engine.Bolt{}
	boltCost := engine.Cycles(60*time.Microsecond, 2000)
	if cfg.BoltCostCycles > 0 {
		boltCost = cfg.BoltCostCycles
	}
	costs := map[string]engine.CostFn{
		"spout": engine.ConstCost(engine.Cycles(300*time.Microsecond, 2000)),
	}
	for i := 1; i <= cfg.Bolts; i++ {
		name := fmt.Sprintf("bolt%d", i)
		decl := b.Bolt(name, cfg.BoltPar).Shuffle(prev)
		if i < cfg.Bolts {
			decl.Output("default", "str")
			bolts[name] = func() engine.Bolt { return identityBolt{} }
		} else {
			bolts[name] = func() engine.Bolt { return &counterBolt{} }
		}
		costs[name] = engine.ConstCost(boltCost)
		prev = name
	}
	top, err := b.Build()
	if err != nil {
		return nil, err
	}
	payload := strings.Repeat("x", cfg.PayloadBytes)
	return &engine.App{
		Topology: top,
		Spouts: map[string]func() engine.Spout{
			"spout": func() engine.Spout { return &throughputSpout{payload: payload} },
		},
		Bolts:         bolts,
		Costs:         costs,
		SpoutInterval: map[string]time.Duration{"spout": cfg.EmitInterval},
	}, nil
}
