// Package topology models Storm topologies: directed graphs of spouts and
// bolts connected by streams with one of the five Storm groupings
// (shuffle, fields, all, global, direct). A Builder assembles and
// validates a Topology; the engine instantiates its executors.
//
// As in the paper (and Storm's default), each executor runs exactly one
// task, so "task" and "executor" are used interchangeably.
package topology

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"tstorm/internal/tuple"
)

// DefaultStream is the stream name used when none is given.
const DefaultStream = "default"

// AckerComponent is the reserved component name for the system acker bolt.
const AckerComponent = "__acker"

// GroupingType enumerates Storm's stream groupings.
type GroupingType int

// The five groupings described in the paper (§II).
const (
	// ShuffleGrouping distributes tuples randomly and evenly across the
	// receiving bolt's tasks.
	ShuffleGrouping GroupingType = iota + 1
	// FieldsGrouping partitions the stream by the values of one or more
	// fields; equal keys always reach the same task.
	FieldsGrouping
	// AllGrouping broadcasts every tuple to all tasks of the bolt.
	AllGrouping
	// GlobalGrouping routes the entire stream to the task with the lowest ID.
	GlobalGrouping
	// DirectGrouping lets the producer choose the receiving task per tuple.
	DirectGrouping
	// LocalOrShuffleGrouping prefers consumer tasks in the same worker
	// process and falls back to shuffle — Storm's locality-aware shuffle,
	// which compounds with traffic-aware scheduling.
	LocalOrShuffleGrouping
)

// String names the grouping type.
func (g GroupingType) String() string {
	switch g {
	case ShuffleGrouping:
		return "shuffle"
	case FieldsGrouping:
		return "fields"
	case AllGrouping:
		return "all"
	case GlobalGrouping:
		return "global"
	case DirectGrouping:
		return "direct"
	case LocalOrShuffleGrouping:
		return "local-or-shuffle"
	default:
		return fmt.Sprintf("GroupingType(%d)", int(g))
	}
}

// Grouping is one input subscription of a bolt.
type Grouping struct {
	Type GroupingType
	// SourceComponent and SourceStream identify the subscribed stream.
	SourceComponent string
	SourceStream    string
	// FieldNames are the partitioning fields (FieldsGrouping only).
	FieldNames []string
}

// ComponentKind distinguishes spouts from bolts.
type ComponentKind int

// Component kinds.
const (
	SpoutKind ComponentKind = iota + 1
	BoltKind
)

// String names the kind.
func (k ComponentKind) String() string {
	switch k {
	case SpoutKind:
		return "spout"
	case BoltKind:
		return "bolt"
	default:
		return fmt.Sprintf("ComponentKind(%d)", int(k))
	}
}

// Component is one vertex of the topology graph.
type Component struct {
	Name        string
	Kind        ComponentKind
	Parallelism int
	// Inputs are the bolt's subscriptions (empty for spouts).
	Inputs []Grouping
	// Outputs maps stream name to its declared field schema.
	Outputs map[string]tuple.Fields

	// base is the position of the component's executor 0 in
	// Topology.Executors(): the parallelism of every component declared
	// before it, summed when the topology is built.
	base int
}

// ExecutorID identifies one executor of one topology.
type ExecutorID struct {
	Topology  string `json:"topology"`
	Component string `json:"component"`
	Index     int    `json:"index"`
}

// String renders "topo/component[index]".
func (e ExecutorID) String() string {
	return fmt.Sprintf("%s/%s[%d]", e.Topology, e.Component, e.Index)
}

// Less orders executor IDs lexicographically (topology, component, index).
func (e ExecutorID) Less(o ExecutorID) bool { return e.Compare(o) < 0 }

// Compare is Less as a three-way comparison: negative when e sorts
// before o, zero when they are equal, positive otherwise.
func (e ExecutorID) Compare(o ExecutorID) int {
	if c := strings.Compare(e.Topology, o.Topology); c != 0 {
		return c
	}
	if c := strings.Compare(e.Component, o.Component); c != 0 {
		return c
	}
	return cmp.Compare(e.Index, o.Index)
}

// Topology is a validated Storm application graph.
type Topology struct {
	name       string
	numWorkers int
	ackers     int
	components map[string]*Component
	order      []string // insertion order, deterministic iteration
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// NumWorkers returns the user-requested worker (process) count, the
// paper's N_u.
func (t *Topology) NumWorkers() int { return t.numWorkers }

// Ackers returns the configured number of acker executors.
func (t *Topology) Ackers() int { return t.ackers }

// Component returns the named component. It is the topology's own: the
// numbering (Number) is fixed when the topology is built, so its
// Parallelism must not change afterwards.
func (t *Topology) Component(name string) (*Component, bool) {
	c, ok := t.components[name]
	return c, ok
}

// ComponentNames returns all component names in declaration order
// (the acker component, if any, is last).
func (t *Topology) ComponentNames() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Executors enumerates every executor of the topology in deterministic
// order: components in declaration order, indexes ascending. An
// executor's position in it is its Number.
func (t *Topology) Executors() []ExecutorID {
	return t.AppendExecutors(make([]ExecutorID, 0, t.NumExecutors()))
}

// AppendExecutors appends Executors() to dst and returns the extended
// slice, so a caller listing several topologies copies no list twice.
func (t *Topology) AppendExecutors(dst []ExecutorID) []ExecutorID {
	for _, name := range t.order {
		c := t.components[name]
		for i := 0; i < c.Parallelism; i++ {
			dst = append(dst, ExecutorID{Topology: t.name, Component: name, Index: i})
		}
	}
	return dst
}

// Number returns the position of the component's executor index in
// Executors(): the component's base, the parallelism of every component
// declared before it, plus index. ok is false for an unknown component or
// an index outside [0, Parallelism).
func (t *Topology) Number(component string, index int) (n int, ok bool) {
	c, ok := t.components[component]
	if !ok || index < 0 || index >= c.Parallelism {
		return -1, false
	}
	return c.base + index, true
}

// NumExecutors returns the total executor count (the paper's N_e for a
// single topology).
func (t *Topology) NumExecutors() int {
	n := 0
	for _, name := range t.order {
		n += t.components[name].Parallelism
	}
	return n
}

// Consumers returns the bolts subscribed to the given component+stream,
// with their groupings, in declaration order.
func (t *Topology) Consumers(component, stream string) []ConsumerEdge {
	var out []ConsumerEdge
	for _, name := range t.order {
		c := t.components[name]
		for _, g := range c.Inputs {
			if g.SourceComponent == component && g.SourceStream == stream {
				out = append(out, ConsumerEdge{Consumer: name, Grouping: g})
			}
		}
	}
	return out
}

// ConsumerEdge is one subscription edge resolved from the consumer side.
type ConsumerEdge struct {
	Consumer string
	Grouping Grouping
}

// AdjacentComponents returns, for each component, the set of components it
// exchanges data tuples with (either direction), used by topology-aware
// (offline) scheduling.
func (t *Topology) AdjacentComponents() map[string][]string {
	adj := make(map[string][]string, len(t.order))
	seen := make(map[[2]string]bool)
	add := func(a, b string) {
		if !seen[[2]string{a, b}] {
			seen[[2]string{a, b}] = true
			adj[a] = append(adj[a], b)
		}
	}
	for _, name := range t.order {
		for _, g := range t.components[name].Inputs {
			add(name, g.SourceComponent)
			add(g.SourceComponent, name)
		}
	}
	return adj
}

// Builder assembles a Topology.
type Builder struct {
	top  *Topology
	errs []error
}

// NewBuilder starts a topology with the given name and user-requested
// worker count (the paper's N_u).
func NewBuilder(name string, numWorkers int) *Builder {
	return &Builder{top: &Topology{
		name:       name,
		numWorkers: numWorkers,
		components: make(map[string]*Component),
	}}
}

// SetAckers configures the number of acker executors (default 0 = acking
// disabled). Ackers become a hidden bolt component named AckerComponent.
func (b *Builder) SetAckers(n int) *Builder {
	b.top.ackers = n
	return b
}

func (b *Builder) addComponent(name string, kind ComponentKind, parallelism int) *Component {
	if name == "" {
		b.errs = append(b.errs, errors.New("topology: empty component name"))
	}
	if name == AckerComponent {
		b.errs = append(b.errs, fmt.Errorf("topology: %q is reserved", name))
	}
	if parallelism <= 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: component %q has parallelism %d", name, parallelism))
	}
	if _, dup := b.top.components[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate component %q", name))
		return &Component{Name: name, Kind: kind, Parallelism: parallelism, Outputs: map[string]tuple.Fields{}}
	}
	c := &Component{Name: name, Kind: kind, Parallelism: parallelism, Outputs: map[string]tuple.Fields{}}
	b.top.components[name] = c
	b.top.order = append(b.top.order, name)
	return c
}

// Spout declares a spout with the given parallelism.
func (b *Builder) Spout(name string, parallelism int) *SpoutDecl {
	c := b.addComponent(name, SpoutKind, parallelism)
	return &SpoutDecl{b: b, c: c}
}

// Bolt declares a bolt with the given parallelism.
func (b *Builder) Bolt(name string, parallelism int) *BoltDecl {
	c := b.addComponent(name, BoltKind, parallelism)
	return &BoltDecl{b: b, c: c}
}

// SpoutDecl configures a declared spout.
type SpoutDecl struct {
	b *Builder
	c *Component
}

// Output declares a stream emitted by the spout with its field schema.
func (d *SpoutDecl) Output(stream string, fields ...string) *SpoutDecl {
	d.b.declareOutput(d.c, stream, fields)
	return d
}

// BoltDecl configures a declared bolt.
type BoltDecl struct {
	b *Builder
	c *Component
}

// Output declares a stream emitted by the bolt with its field schema.
func (d *BoltDecl) Output(stream string, fields ...string) *BoltDecl {
	d.b.declareOutput(d.c, stream, fields)
	return d
}

func (b *Builder) declareOutput(c *Component, stream string, fields []string) {
	if stream == "" {
		stream = DefaultStream
	}
	if _, dup := c.Outputs[stream]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: %q declares stream %q twice", c.Name, stream))
		return
	}
	c.Outputs[stream] = tuple.Fields(fields)
}

// Shuffle subscribes the bolt to a component's default stream with
// shuffle grouping.
func (d *BoltDecl) Shuffle(source string) *BoltDecl {
	return d.ShuffleStream(source, DefaultStream)
}

// ShuffleStream subscribes with shuffle grouping to a named stream.
func (d *BoltDecl) ShuffleStream(source, stream string) *BoltDecl {
	d.c.Inputs = append(d.c.Inputs, Grouping{Type: ShuffleGrouping, SourceComponent: source, SourceStream: stream})
	return d
}

// Fields subscribes with fields grouping on the default stream.
func (d *BoltDecl) Fields(source string, fields ...string) *BoltDecl {
	return d.FieldsStream(source, DefaultStream, fields...)
}

// FieldsStream subscribes with fields grouping to a named stream.
func (d *BoltDecl) FieldsStream(source, stream string, fields ...string) *BoltDecl {
	d.c.Inputs = append(d.c.Inputs, Grouping{
		Type: FieldsGrouping, SourceComponent: source, SourceStream: stream, FieldNames: fields,
	})
	return d
}

// All subscribes with all (broadcast) grouping on the default stream.
func (d *BoltDecl) All(source string) *BoltDecl {
	d.c.Inputs = append(d.c.Inputs, Grouping{Type: AllGrouping, SourceComponent: source, SourceStream: DefaultStream})
	return d
}

// Global subscribes with global grouping on the default stream.
func (d *BoltDecl) Global(source string) *BoltDecl {
	d.c.Inputs = append(d.c.Inputs, Grouping{Type: GlobalGrouping, SourceComponent: source, SourceStream: DefaultStream})
	return d
}

// Direct subscribes with direct grouping on the default stream.
func (d *BoltDecl) Direct(source string) *BoltDecl {
	d.c.Inputs = append(d.c.Inputs, Grouping{Type: DirectGrouping, SourceComponent: source, SourceStream: DefaultStream})
	return d
}

// LocalOrShuffle subscribes with local-or-shuffle grouping on the default
// stream.
func (d *BoltDecl) LocalOrShuffle(source string) *BoltDecl {
	d.c.Inputs = append(d.c.Inputs, Grouping{Type: LocalOrShuffleGrouping, SourceComponent: source, SourceStream: DefaultStream})
	return d
}

// Build validates the topology and returns it.
func (b *Builder) Build() (*Topology, error) {
	t := b.top
	errs := append([]error(nil), b.errs...)
	if t.numWorkers <= 0 {
		errs = append(errs, fmt.Errorf("topology %q: numWorkers %d must be positive", t.name, t.numWorkers))
	}
	if t.ackers < 0 {
		errs = append(errs, fmt.Errorf("topology %q: negative acker count", t.name))
	}
	spouts := 0
	for _, name := range t.order {
		c := t.components[name]
		switch c.Kind {
		case SpoutKind:
			spouts++
			if len(c.Inputs) > 0 {
				errs = append(errs, fmt.Errorf("topology %q: spout %q has inputs", t.name, name))
			}
		case BoltKind:
			if len(c.Inputs) == 0 {
				errs = append(errs, fmt.Errorf("topology %q: bolt %q has no inputs", t.name, name))
			}
		}
		for _, g := range c.Inputs {
			src, ok := t.components[g.SourceComponent]
			if !ok {
				errs = append(errs, fmt.Errorf("topology %q: %q subscribes to unknown component %q", t.name, name, g.SourceComponent))
				continue
			}
			schema, ok := src.Outputs[g.SourceStream]
			if !ok {
				errs = append(errs, fmt.Errorf("topology %q: %q subscribes to undeclared stream %s/%s", t.name, name, g.SourceComponent, g.SourceStream))
				continue
			}
			if g.Type == FieldsGrouping {
				if len(g.FieldNames) == 0 {
					errs = append(errs, fmt.Errorf("topology %q: %q fields-grouping on %s/%s names no fields", t.name, name, g.SourceComponent, g.SourceStream))
				}
				for _, fn := range g.FieldNames {
					if !schema.Contains(fn) {
						errs = append(errs, fmt.Errorf("topology %q: %q fields-grouping field %q not in %s/%s schema %v", t.name, name, fn, g.SourceComponent, g.SourceStream, schema))
					}
				}
			}
		}
	}
	if spouts == 0 {
		errs = append(errs, fmt.Errorf("topology %q: no spouts", t.name))
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if t.ackers > 0 {
		c := &Component{Name: AckerComponent, Kind: BoltKind, Parallelism: t.ackers,
			Outputs: map[string]tuple.Fields{}}
		t.components[AckerComponent] = c
		t.order = append(t.order, AckerComponent)
	}
	n := 0
	for _, name := range t.order {
		c := t.components[name]
		c.base = n
		n += c.Parallelism
	}
	return t, nil
}
