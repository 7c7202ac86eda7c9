package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is how many samples Value summarises (1 for a plain count).
	N int `json:"n"`
	// Q1 and Q3 are the quartiles of the samples, for timings.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Note carries a flag such as "invalid: generator lag" or "p95".
	Note string `json:"note,omitempty"`
}

// result is everything one workload pass produced.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int64    `json:"ops_attempted"`
	Failed    int64    `json:"ops_failed"`
	Metrics   []metric `json:"metrics"`
	// Problems lists failed correctness checks; any entry fails the
	// command.
	Problems []string `json:"problems,omitempty"`

	// tputTps is the pass's headline rate, kept aside for the traced vs
	// untraced comparison.
	tputTps float64
}

func (r *result) set(name, unit string, v float64) { r.setN(name, unit, v, 1) }

func (r *result) setN(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("%s is not a number", name)
		v = 0
	}
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i] = metric{Name: name, Unit: unit, Value: v, N: n}
			return
		}
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// setSamples reports a timing as the median of its samples, with
// quartiles and n.
func (r *result) setSamples(name, unit string, samples []float64) {
	med, q1, q3 := quartiles(samples)
	r.setN(name, unit, med, len(samples))
	m := &r.Metrics[r.index(name)]
	m.Q1, m.Q3 = q1, q3
}

// setQuiet reports a metric sampled once per sub-window as its quiet
// decile: the 10th percentile of the sub-window values when lower is
// better, the 90th when higher is. Other tenants of a shared box only
// ever make a sub-window worse, and they come and go on a scale of
// seconds, so the better tail of the sub-windows estimates the system
// itself where their median follows the neighbours (on dist-wire, run to
// run: median ±19 %, quiet decile ±10 % for p99; ±6 % vs ±3 % for CPU per
// tuple). The quartiles of all sub-windows are printed beside it.
func (r *result) setQuiet(name, unit string, samples []float64, lowerBetter bool) {
	r.setSamples(name, unit, samples)
	if len(samples) == 0 {
		return
	}
	q := 0.9
	if lowerBetter {
		q = 0.1
	}
	m := &r.Metrics[r.index(name)]
	m.Value = percentile(samples, q)
	m.Note = "quiet decile"
}

// percentile interpolates linearly between order statistics.
func percentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func (r *result) note(name, note string) {
	if i := r.index(name); i >= 0 {
		r.Metrics[i].Note = note
	}
}

func (r *result) index(name string) int {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return i
		}
	}
	return -1
}

func (r *result) get(name string) (float64, bool) {
	if i := r.index(name); i >= 0 {
		return r.Metrics[i].Value, true
	}
	return 0, false
}

// problem records a failed correctness check: one more failed operation
// and a non-zero exit.
func (r *result) problem(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// quartiles returns the median and the first and third quartiles, by
// linear interpolation between order statistics.
func quartiles(samples []float64) (med, q1, q3 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	return percentile(samples, 0.5), percentile(samples, 0.25), percentile(samples, 0.75)
}

func median(samples []float64) float64 {
	m, _, _ := quartiles(samples)
	return m
}

// print writes the human-readable table.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: ops_attempted %d, ops_failed %d\n", r.Workload, r.Attempted, r.Failed)
	// Declared order: end-to-end first, then layer by layer.
	rank := make(map[string]int)
	for i, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		rank[d.Name] = i + 1
	}
	ms := append([]metric(nil), r.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool {
		ri, rj := rank[ms[i].Name], rank[ms[j].Name]
		if ri == 0 || rj == 0 {
			return ri != 0 // undeclared names (a bug the test catches) last
		}
		return ri < rj
	})
	for _, m := range ms {
		line := fmt.Sprintf("  %-52s %14.6g %-9s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Q1 != 0 || m.Q3 != 0 {
			line += fmt.Sprintf("  q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.Note != "" {
			line += "  [" + m.Note + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}
