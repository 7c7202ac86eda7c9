package topology

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tstorm/internal/tuple"
)

// referenceRouter is the simulated engine's routing before it shared
// Router with the live engine — Consumers walked per emission, round-robin
// counters in a map keyed by consumer and stream, fields keys built as
// strings — kept verbatim (the executor's fields became the struct's) as
// the oracle for Router.Targets.
type referenceRouter struct {
	index      int
	shuffleCtr map[string]int
}

func (ex *referenceRouter) chooseTargets(edge ConsumerEdge, parallelism int, schema tuple.Fields, vals tuple.Values, local []int) []int {
	switch edge.Grouping.Type {
	case ShuffleGrouping:
		key := edge.Consumer + "\x00" + edge.Grouping.SourceStream
		i := ex.shuffleCtr[key]
		ex.shuffleCtr[key] = i + 1
		return []int{(i + ex.index) % parallelism}
	case LocalOrShuffleGrouping:
		// Prefer consumer tasks hosted by this very worker; fall back to
		// plain shuffle when the worker hosts none.
		key := edge.Consumer + "\x00local\x00" + edge.Grouping.SourceStream
		i := ex.shuffleCtr[key]
		ex.shuffleCtr[key] = i + 1
		if len(local) > 0 {
			return []int{local[(i+ex.index)%len(local)]}
		}
		return []int{(i + ex.index) % parallelism}
	case FieldsGrouping:
		key := ""
		for _, fn := range edge.Grouping.FieldNames {
			idx, ok := schema.Index(fn)
			if !ok || idx >= len(vals) {
				continue
			}
			key += tuple.KeyString(vals[idx]) + "\x1f"
		}
		return []int{tuple.HashKey(key, parallelism)}
	case AllGrouping:
		out := make([]int, parallelism)
		for i := range out {
			out[i] = i
		}
		return out
	case GlobalGrouping:
		return []int{0}
	default:
		return nil
	}
}

// randomFanOut builds one source with two streams and a consumer per
// grouping type on each, with random parallelisms.
func randomFanOut(t *testing.T, rng *rand.Rand) *Topology {
	t.Helper()
	b := NewBuilder("fan", 4)
	b.SetAckers(1 + rng.IntN(3))
	b.Spout("src", 1+rng.IntN(4)).Output("default", "a", "b", "c").Output("side", "x", "y")
	par := func() int { return 1 + rng.IntN(7) }
	b.Bolt("shuffle", par()).Shuffle("src").ShuffleStream("src", "side")
	b.Bolt("fields1", par()).Fields("src", "b")
	b.Bolt("fields3", par()).Fields("src", "c", "a", "b").FieldsStream("src", "side", "y")
	b.Bolt("all", par()).All("src")
	b.Bolt("global", par()).Global("src")
	b.Bolt("direct", par()).Direct("src")
	b.Bolt("local", par()).LocalOrShuffle("src")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func randomValue(rng *rand.Rand) any {
	switch rng.IntN(7) {
	case 0:
		return fmt.Sprintf("w%d", rng.IntN(50))
	case 1:
		return rng.IntN(100) - 50
	case 2:
		return int64(rng.IntN(1000))
	case 3:
		return rng.Uint64()
	case 4:
		return rng.IntN(2) == 0
	case 5:
		return float64(rng.IntN(40)) / 8
	default:
		return []byte{byte(rng.IntN(256)), 0x1f}
	}
}

func TestRouterMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x707))
		top := randomFanOut(t, rng)
		src, _ := top.Component("src")
		localPar := top.components["local"].Parallelism
		for index := 0; index < src.Parallelism; index++ {
			r := NewRouter(top, src, index)
			ref := &referenceRouter{index: index, shuffleCtr: map[string]int{}}
			for emission := 0; emission < 200; emission++ {
				stream := DefaultStream
				if rng.IntN(3) == 0 {
					stream = "side"
				}
				schema := src.Outputs[stream]
				// Sometimes shorter than the schema: missing key fields are skipped.
				vals := make(tuple.Values, rng.IntN(len(schema)+1))
				for i := range vals {
					vals[i] = randomValue(rng)
				}
				var local []int
				for task := 0; task < localPar; task++ {
					if rng.IntN(3) == 0 {
						local = append(local, task)
					}
				}
				os := r.Stream(stream)
				var edges []ConsumerEdge
				for _, e := range top.Consumers("src", stream) {
					if e.Grouping.Type != DirectGrouping {
						edges = append(edges, e)
					}
				}
				if len(os.Edges) != len(edges) {
					t.Fatalf("seed %d: stream %q has %d edges, want %d", seed, stream, len(os.Edges), len(edges))
				}
				for i := range os.Edges {
					e := &os.Edges[i]
					cons, _ := top.Component(e.Edge.Consumer)
					want := ref.chooseTargets(edges[i], cons.Parallelism, schema, vals, local)
					got := r.Targets(e, vals, local)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d task %d emission %d: %s on %q picked %v, reference %v",
							seed, index, emission, e.Edge.Grouping.Type, e.Edge.Consumer, got, want)
					}
					if first := top.Executors()[e.First]; first.Component != e.Edge.Consumer || first.Index != 0 {
						t.Fatalf("seed %d: First of %q points at %v", seed, e.Edge.Consumer, first)
					}
				}
			}
		}
	}
}

func TestRouterUndeclaredStreamAndDirectEdges(t *testing.T) {
	top := randomFanOut(t, rand.New(rand.NewPCG(1, 1)))
	src, _ := top.Component("src")
	r := NewRouter(top, src, 0)
	if r.Stream("nope") != nil {
		t.Error("undeclared stream resolved")
	}
	for _, e := range r.Stream(DefaultStream).Edges {
		if e.Edge.Consumer == "direct" {
			t.Error("direct subscriber listed among the edges Emit reaches")
		}
	}
}

// BenchmarkRouterTargets is one fields-grouped and one shuffle-grouped
// pick, the two a Word Count tuple pays.
func BenchmarkRouterTargets(b *testing.B) {
	bld := NewBuilder("wc", 4)
	bld.Spout("split", 5).Output("default", "word")
	bld.Bolt("count", 5).Fields("split", "word")
	bld.Bolt("tap", 5).Shuffle("split")
	top, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	comp, _ := top.Component("split")
	r := NewRouter(top, comp, 3)
	vals := tuple.Values{"storm"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		os := r.Stream(DefaultStream)
		for ei := range os.Edges {
			if len(r.Targets(&os.Edges[ei], vals, nil)) != 1 {
				b.Fatal("no target")
			}
		}
	}
}
