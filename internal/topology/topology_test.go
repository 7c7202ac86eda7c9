package topology

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

func buildWordCount(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder("wc", 20)
	b.SetAckers(2)
	b.Spout("reader", 2).Output("default", "line")
	b.Bolt("split", 5).Shuffle("reader").Output("default", "word")
	b.Bolt("count", 5).Fields("split", "word").Output("default", "word", "count")
	b.Bolt("mongo", 5).Shuffle("count")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBuildValidTopology(t *testing.T) {
	top := buildWordCount(t)
	if top.Name() != "wc" || top.NumWorkers() != 20 || top.Ackers() != 2 {
		t.Fatalf("basic accessors wrong: %s %d %d", top.Name(), top.NumWorkers(), top.Ackers())
	}
	// 2 + 5 + 5 + 5 + 2 ackers
	if got := top.NumExecutors(); got != 19 {
		t.Fatalf("NumExecutors = %d, want 19", got)
	}
	names := top.ComponentNames()
	if names[len(names)-1] != AckerComponent {
		t.Fatalf("acker component not last: %v", names)
	}
	c, ok := top.Component("split")
	if !ok || c.Kind != BoltKind || c.Parallelism != 5 {
		t.Fatalf("Component(split) = %+v ok=%v", c, ok)
	}
}

func TestExecutorsDeterministicOrder(t *testing.T) {
	top := buildWordCount(t)
	execs := top.Executors()
	if len(execs) != 19 {
		t.Fatalf("executors = %d, want 19", len(execs))
	}
	if execs[0] != (ExecutorID{"wc", "reader", 0}) || execs[1] != (ExecutorID{"wc", "reader", 1}) {
		t.Fatalf("first executors = %v", execs[:2])
	}
	if execs[18] != (ExecutorID{"wc", AckerComponent, 1}) {
		t.Fatalf("last executor = %v", execs[18])
	}
	if got := execs[2].String(); got != "wc/split[0]" {
		t.Fatalf("String = %q", got)
	}
}

func TestExecutorIDLess(t *testing.T) {
	a := ExecutorID{"a", "x", 0}
	tests := []struct {
		b    ExecutorID
		want bool
	}{
		{ExecutorID{"b", "a", 0}, true},
		{ExecutorID{"a", "y", 0}, true},
		{ExecutorID{"a", "x", 1}, true},
		{ExecutorID{"a", "x", 0}, false},
		{ExecutorID{"a", "w", 0}, false},
	}
	for _, tt := range tests {
		if got := a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", a, tt.b, got, tt.want)
		}
	}
}

func TestConsumers(t *testing.T) {
	top := buildWordCount(t)
	edges := top.Consumers("split", DefaultStream)
	if len(edges) != 1 || edges[0].Consumer != "count" || edges[0].Grouping.Type != FieldsGrouping {
		t.Fatalf("Consumers = %+v", edges)
	}
	if got := top.Consumers("mongo", DefaultStream); len(got) != 0 {
		t.Fatalf("sink should have no consumers, got %v", got)
	}
}

func TestAdjacentComponents(t *testing.T) {
	top := buildWordCount(t)
	adj := top.AdjacentComponents()
	has := func(a, b string) bool {
		for _, x := range adj[a] {
			if x == b {
				return true
			}
		}
		return false
	}
	if !has("split", "reader") || !has("reader", "split") || !has("count", "mongo") {
		t.Fatalf("adjacency wrong: %v", adj)
	}
	if has("reader", "count") {
		t.Fatal("non-adjacent components reported adjacent")
	}
}

func TestBuildErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Builder
		want  string
	}{
		{"no spouts", func() *Builder {
			b := NewBuilder("t", 1)
			b.Bolt("b", 1).Shuffle("missing").Output("default", "x")
			return b
		}, "no spouts"},
		{"unknown source", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("b", 1).Shuffle("nope")
			return b
		}, "unknown component"},
		{"undeclared stream", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("b", 1).ShuffleStream("s", "other")
			return b
		}, "undeclared stream"},
		{"bad fields", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("b", 1).Fields("s", "nope")
			return b
		}, "not in"},
		{"fields grouping without fields", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("b", 1).Fields("s")
			return b
		}, "names no fields"},
		{"bolt without inputs", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("b", 1)
			return b
		}, "no inputs"},
		{"duplicate component", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("s", 1).Shuffle("s")
			return b
		}, "duplicate"},
		{"zero parallelism", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 0).Output("default", "x")
			return b
		}, "parallelism 0"},
		{"zero workers", func() *Builder {
			b := NewBuilder("t", 0)
			b.Spout("s", 1).Output("default", "x")
			return b
		}, "numWorkers"},
		{"reserved name", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout(AckerComponent, 1).Output("default", "x")
			return b
		}, "reserved"},
		{"negative ackers", func() *Builder {
			b := NewBuilder("t", 1)
			b.SetAckers(-1)
			b.Spout("s", 1).Output("default", "x")
			return b
		}, "negative acker"},
		{"spout with inputs", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x")
			b.Bolt("b", 1).Shuffle("s").Output("o", "y")
			sp := b.Spout("s2", 1)
			sp.c.Inputs = append(sp.c.Inputs, Grouping{Type: ShuffleGrouping, SourceComponent: "b", SourceStream: "o"})
			return b
		}, "has inputs"},
		{"duplicate stream", func() *Builder {
			b := NewBuilder("t", 1)
			b.Spout("s", 1).Output("default", "x").Output("default", "y")
			return b
		}, "twice"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build().Build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestAllGroupingKinds(t *testing.T) {
	b := NewBuilder("t", 1)
	b.Spout("s", 2).Output("default", "k")
	b.Bolt("sh", 1).Shuffle("s").Output("default", "k")
	b.Bolt("fl", 2).Fields("s", "k")
	b.Bolt("al", 2).All("s")
	b.Bolt("gl", 2).Global("s")
	b.Bolt("di", 2).Direct("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := map[string]GroupingType{
		"sh": ShuffleGrouping, "fl": FieldsGrouping, "al": AllGrouping,
		"gl": GlobalGrouping, "di": DirectGrouping,
	}
	for name, want := range wantTypes {
		c, _ := top.Component(name)
		if c.Inputs[0].Type != want {
			t.Errorf("%s grouping = %v, want %v", name, c.Inputs[0].Type, want)
		}
	}
}

func TestGroupingTypeString(t *testing.T) {
	tests := []struct {
		g    GroupingType
		want string
	}{
		{ShuffleGrouping, "shuffle"}, {FieldsGrouping, "fields"}, {AllGrouping, "all"},
		{GlobalGrouping, "global"}, {DirectGrouping, "direct"}, {GroupingType(0), "GroupingType(0)"},
	}
	for _, tt := range tests {
		if got := tt.g.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
	if SpoutKind.String() != "spout" || BoltKind.String() != "bolt" ||
		ComponentKind(9).String() != "ComponentKind(9)" {
		t.Error("ComponentKind.String wrong")
	}
}

func TestNoAckersMeansNoAckerComponent(t *testing.T) {
	b := NewBuilder("t", 1)
	b.Spout("s", 1).Output("default", "x")
	b.Bolt("b", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := top.Component(AckerComponent); ok {
		t.Fatal("acker component present with 0 ackers")
	}
	if top.NumExecutors() != 2 {
		t.Fatalf("NumExecutors = %d, want 2", top.NumExecutors())
	}
}

func TestDOTExport(t *testing.T) {
	top := buildWordCount(t)
	dot := top.DOT()
	for _, want := range []string{
		`digraph "wc"`,
		`"reader" [shape=doublecircle`,
		`"split" [shape=box`,
		`"split" -> "count" [label="fields(word)"]`,
		`"reader" -> "split" [label="shuffle"]`,
		`label="acker\nx2"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if top.DOT() != dot {
		t.Error("DOT not deterministic")
	}
}

func TestLocalOrShuffleBuilderAndString(t *testing.T) {
	b := NewBuilder("t", 1)
	b.Spout("s", 1).Output("default", "v")
	b.Bolt("b", 2).LocalOrShuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := top.Component("b")
	if c.Inputs[0].Type != LocalOrShuffleGrouping {
		t.Fatalf("grouping = %v", c.Inputs[0].Type)
	}
	if LocalOrShuffleGrouping.String() != "local-or-shuffle" {
		t.Fatal("String wrong")
	}
}

// TestNumberIsExecutorsPosition builds seeded random topologies and checks
// that every executor's Number is its position in Executors(), that the
// router's First agrees with it, and that an unknown component or an
// index outside [0, Parallelism) reads as absent.
func TestNumberIsExecutorsPosition(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 47))
		b := NewBuilder(fmt.Sprintf("t%d", seed), 1+rng.IntN(4))
		b.SetAckers(rng.IntN(3))
		comps := 1 + rng.IntN(6)
		b.Spout("c0", 1+rng.IntN(5)).Output(DefaultStream, "v")
		for i := 1; i < comps; i++ {
			b.Bolt(fmt.Sprintf("c%d", i), 1+rng.IntN(5)).Shuffle(fmt.Sprintf("c%d", rng.IntN(i))).Output(DefaultStream, "v")
		}
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for pos, e := range top.Executors() {
			if n, ok := top.Number(e.Component, e.Index); !ok || n != pos {
				t.Fatalf("seed %d: Number(%v) = %d, %v; want %d", seed, e, n, ok, pos)
			}
		}
		for _, name := range top.ComponentNames() {
			c, _ := top.Component(name)
			for _, index := range []int{-1, c.Parallelism, c.Parallelism + rng.IntN(9)} {
				if n, ok := top.Number(name, index); ok || n != -1 {
					t.Fatalf("seed %d: Number(%s, %d) = %d, %v for parallelism %d", seed, name, index, n, ok, c.Parallelism)
				}
			}
			if os := NewRouter(top, c, 0).Stream(DefaultStream); os != nil {
				for _, edge := range os.Edges {
					if n, _ := top.Number(edge.Edge.Consumer, 0); edge.First != n {
						t.Fatalf("seed %d: router's First for %s = %d, Number %d", seed, edge.Edge.Consumer, edge.First, n)
					}
				}
			}
		}
		if n, ok := top.Number("absent", 0); ok || n != -1 {
			t.Fatalf("seed %d: unknown component numbered %d, %v", seed, n, ok)
		}
	}
}
