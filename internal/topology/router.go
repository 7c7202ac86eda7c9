package topology

import "tstorm/internal/tuple"

// OutEdge is one consumer edge of an output stream with its grouping
// state: the consumer's parallelism, the schema indexes of a fields
// grouping's key and the round-robin position the shuffle groupings
// advance. Resolving all of this once per executor keeps the per-emission
// path free of topology walks, string-keyed counters and slice allocations.
type OutEdge struct {
	Edge ConsumerEdge
	// First is the position of the consumer's task 0 in
	// Topology.Executors(), so a task index resolves to an executor by
	// addition.
	First int

	par      int   // consumer parallelism
	fieldIdx []int // FieldsGrouping: schema indexes of the grouping fields
	ctr      int   // shuffle / local-or-shuffle round-robin position
}

// OutStream is one declared output stream: its consumer edges in
// declaration order. Direct-grouping subscribers are left out — only
// EmitDirect reaches them.
type OutStream struct {
	Edges []OutEdge
}

// Router is one executor's routing state: every output stream of its
// component pre-resolved, and the scratch Targets reuses. It belongs to
// the executor's goroutine (or, in the simulation, to its service period);
// both engines route through it, so a grouping picks the same task in
// both.
type Router struct {
	streams map[string]*OutStream
	// def is streams[DefaultStream], the one nearly every emission names:
	// Stream finds it by comparing the name instead of hashing it.
	def *OutStream
	// index is the executor's own task index: the offset that staggers the
	// round-robin of a component's executors.
	index   int
	targets []int
	key     []byte
}

// NewRouter resolves the output streams of one executor of comp.
func NewRouter(top *Topology, comp *Component, index int) *Router {
	first := make(map[string]int, len(top.order))
	n := 0
	for _, name := range top.order {
		first[name] = n
		n += top.components[name].Parallelism
	}
	r := &Router{streams: make(map[string]*OutStream, len(comp.Outputs)), index: index}
	for stream, schema := range comp.Outputs {
		os := &OutStream{}
		for _, edge := range top.Consumers(comp.Name, stream) {
			if edge.Grouping.Type == DirectGrouping {
				continue
			}
			oe := OutEdge{Edge: edge, First: first[edge.Consumer], par: top.components[edge.Consumer].Parallelism}
			if edge.Grouping.Type == FieldsGrouping {
				for _, fn := range edge.Grouping.FieldNames {
					if idx, ok := schema.Index(fn); ok {
						oe.fieldIdx = append(oe.fieldIdx, idx)
					}
				}
			}
			os.Edges = append(os.Edges, oe)
		}
		r.streams[stream] = os
	}
	r.def = r.streams[DefaultStream]
	return r
}

// Stream returns the named output stream, nil when the component does not
// declare it.
func (r *Router) Stream(name string) *OutStream {
	if name == DefaultStream {
		return r.def
	}
	return r.streams[name]
}

// Targets picks the receiving task indexes of one emission on one edge.
// local matters to LocalOrShuffleGrouping only: the consumer's task
// indexes hosted by the sender's own worker, which the engine knows and
// the topology does not; the edge falls back to plain shuffle when it is
// empty. The result is valid until the next call.
func (r *Router) Targets(e *OutEdge, vals tuple.Values, local []int) []int {
	out := r.targets[:0]
	switch e.Edge.Grouping.Type {
	case ShuffleGrouping:
		i := e.ctr
		e.ctr++
		out = append(out, (i+r.index)%e.par)
	case LocalOrShuffleGrouping:
		i := e.ctr
		e.ctr++
		if len(local) > 0 {
			out = append(out, local[(i+r.index)%len(local)])
		} else {
			out = append(out, (i+r.index)%e.par)
		}
	case FieldsGrouping:
		key := r.key[:0]
		for _, idx := range e.fieldIdx {
			if idx >= len(vals) {
				continue
			}
			key = tuple.AppendKey(key, vals[idx])
			key = append(key, '\x1f')
		}
		r.key = key
		out = append(out, tuple.HashKeyBytes(key, e.par))
	case AllGrouping:
		for i := 0; i < e.par; i++ {
			out = append(out, i)
		}
	case GlobalGrouping:
		out = append(out, 0)
	}
	r.targets = out
	return out
}
