package main

// Frame rendering: pure functions from the scraped JSON documents to the
// terminal panel, so tests can pin the layout without an HTTP server or
// a real clock.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// point mirrors one /debug/timeseries sample (t is Unix nanoseconds).
type point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// tsSeries mirrors one retained series.
type tsSeries struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []point `json:"points"`
}

// tsDoc mirrors the /debug/timeseries response.
type tsDoc struct {
	Now    time.Time  `json:"now"`
	Series []tsSeries `json:"series"`
}

// ruleDoc mirrors one /debug/health rule verdict.
type ruleDoc struct {
	Rule        string    `json:"rule"`
	Level       string    `json:"level"`
	Value       float64   `json:"value"`
	Unit        string    `json:"unit"`
	HasValue    bool      `json:"has_value"`
	Baseline    float64   `json:"baseline"`
	HasBaseline bool      `json:"has_baseline"`
	Since       time.Time `json:"since"`
	Transitions int64     `json:"transitions"`
}

// healthDoc mirrors the /debug/health response.
type healthDoc struct {
	Overall     string    `json:"overall"`
	At          time.Time `json:"at"`
	Evals       int64     `json:"evals"`
	Transitions int64     `json:"transitions"`
	Rules       []ruleDoc `json:"rules"`
}

// workerDoc mirrors one /debug/workers row.
type workerDoc struct {
	Slot struct {
		Node string `json:"node"`
		Port int    `json:"port"`
	} `json:"slot"`
	PID      int   `json:"pid"`
	Alive    bool  `json:"alive"`
	Restarts int   `json:"restarts"`
	Pending  int64 `json:"pending"`
	Dropped  int64 `json:"dropped_frames"`
}

// workersDoc mirrors the /debug/workers response.
type workersDoc struct {
	Alive   int         `json:"alive"`
	Workers []workerDoc `json:"workers"`
}

// frame is everything one refresh scraped.
type frame struct {
	Addr   string
	Window time.Duration
	Now    time.Time

	HasTS      bool
	TS         tsDoc
	HasHealth  bool
	Health     healthDoc
	HasWorkers bool
	Workers    workersDoc
}

// sparkWidth is how many cells a sparkline occupies.
const sparkWidth = 40

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vs scaled to its own min..max, newest value last. A
// constant (or single-point) series renders at the lowest level so a
// flat line reads as flat, not as alarmingly full.
func sparkline(vs []float64, width int) string {
	if len(vs) > width {
		vs = vs[len(vs)-width:]
	}
	if len(vs) == 0 {
		return ""
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// rates converts a cumulative counter series into per-second rates
// between consecutive points (one fewer value than points; negative
// deltas — a counter reset — clamp to zero).
func rates(pts []point) []float64 {
	if len(pts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := float64(pts[i].T-pts[i-1].T) / float64(time.Second)
		if dt <= 0 {
			continue
		}
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = 0
		}
		out = append(out, d/dt)
	}
	return out
}

// values extracts a gauge series' raw values.
func values(pts []point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// lookup finds a series by name (nil when absent).
func (d *tsDoc) lookup(name string) *tsSeries {
	for i := range d.Series {
		if d.Series[i].Name == name {
			return &d.Series[i]
		}
	}
	return nil
}

// seriesRow renders one sparkline row: label, sparkline over vs, and the
// newest value formatted with unit.
func seriesRow(w io.Writer, label string, vs []float64, unit string) {
	if len(vs) == 0 {
		return
	}
	cur := vs[len(vs)-1]
	fmt.Fprintf(w, "  %-16s %-*s %10.6g %s\n", label, sparkWidth, sparkline(vs, sparkWidth), cur, unit)
}

// levelMark is the one-cell level indicator in the health panel.
func levelMark(level string) string {
	switch level {
	case "ok":
		return " "
	case "degraded":
		return "!"
	case "critical":
		return "X"
	}
	return "?"
}

// renderFrame draws one full dashboard frame.
func renderFrame(w io.Writer, f *frame) {
	overall := "health off"
	if f.HasHealth {
		overall = strings.ToUpper(f.Health.Overall)
	}
	fmt.Fprintf(w, "tstorm-top  %s  %s  overall=%s\n",
		f.Addr, f.Now.Format("15:04:05"), overall)

	if f.HasTS {
		fmt.Fprintf(w, "\nseries (window %s)\n", f.Window)
		type row struct {
			series  string
			label   string
			counter bool
			unit    string
		}
		rows := []row{
			{"sink_processed_total", "throughput", true, "tuples/s"},
			{"roots_emitted_total", "emit rate", true, "roots/s"},
			{"completion_p99_ms", "completion p99", false, "ms"},
			{"inter_node_fraction", "inter-node frac", false, ""},
			{"queue_saturation", "queue saturation", false, ""},
			{"max_queue_depth", "max queue depth", false, "batches"},
			{"pending_roots", "pending roots", false, ""},
			{"failed_roots_total", "fail rate", true, "roots/s"},
			{"workers_alive", "workers alive", false, ""},
			{"worker_heartbeat_age_seconds", "heartbeat age", false, "s"},
		}
		for _, r := range rows {
			sr := f.TS.lookup(r.series)
			if sr == nil {
				continue
			}
			if r.counter {
				seriesRow(w, r.label, rates(sr.Points), r.unit)
			} else {
				seriesRow(w, r.label, values(sr.Points), r.unit)
			}
		}
	}

	if f.HasHealth {
		fmt.Fprintf(w, "\nhealth  evals=%d transitions=%d\n", f.Health.Evals, f.Health.Transitions)
		for _, r := range f.Health.Rules {
			val := "-"
			if r.HasValue {
				val = fmt.Sprintf("%.4g", r.Value)
				if r.Unit != "" {
					val += " " + r.Unit
				}
			}
			base := ""
			if r.HasBaseline {
				base = fmt.Sprintf("  base=%.4g", r.Baseline)
			}
			dur := ""
			if !r.Since.IsZero() {
				dur = fmt.Sprintf("  for %s", f.Now.Sub(r.Since).Round(time.Second))
			}
			fmt.Fprintf(w, "  %s %-9s %-28s %s%s%s\n",
				levelMark(r.Level), r.Level, r.Rule, val, base, dur)
		}
	}

	if f.HasWorkers {
		fmt.Fprintf(w, "\nworkers  %d/%d alive\n", f.Workers.Alive, len(f.Workers.Workers))
		ws := append([]workerDoc(nil), f.Workers.Workers...)
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].Slot.Node != ws[j].Slot.Node {
				return ws[i].Slot.Node < ws[j].Slot.Node
			}
			return ws[i].Slot.Port < ws[j].Slot.Port
		})
		for _, ww := range ws {
			state := "up"
			if !ww.Alive {
				state = "DOWN"
			}
			fmt.Fprintf(w, "  %s:%-5d %-4s pid=%-7d restarts=%-3d pending=%-6d dropped_frames=%d\n",
				ww.Slot.Node, ww.Slot.Port, state, ww.PID, ww.Restarts, ww.Pending, ww.Dropped)
		}
	}
}
