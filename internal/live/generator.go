package live

import (
	"sync"
	"time"

	"tstorm/internal/core"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/trace"
)

// SchedulerTarget is a wall-clock engine as the generator's target and the
// source of its WallClock. The in-process *Engine implements it directly;
// the distributed engine (internal/dist) implements it over its workers.
type SchedulerTarget interface {
	core.Target
	Totals() Totals
	Done() <-chan struct{}
	// Trace is the engine's trace recorder, nil when tracing is off.
	Trace() *trace.Recorder
}

var _ SchedulerTarget = (*Engine)(nil)

// The wall-clock backends run internal/core's schedule generator.
type GeneratorConfig = core.GeneratorConfig

// StartGenerator starts the schedule generator on a wall clock over t: a
// generation every cfg.Period until Stop, or until t stops.
func StartGenerator(t SchedulerTarget, db *loaddb.DB, cfg GeneratorConfig, algo scheduler.Algorithm) (*core.Generator, error) {
	return core.StartGeneratorOn(t, WallClock(t), db, cfg, algo)
}

// WallClock is the generator clock of the wall-clock backends: its ticks
// end when t stops too, t's inter-node counter is the reconciliation
// baseline, and the generator's events join t's trace timeline.
func WallClock(t SchedulerTarget) core.Clock { return wallClock{t} }

type wallClock struct{ t SchedulerTarget }

func (c wallClock) Every(period time.Duration, f func()) func() {
	return startTicker(c.t.Done(), period, f).stop
}

func (wallClock) Now() time.Time { return time.Now() }

func (c wallClock) Event(kind trace.Kind, topo, detail string) {
	if rec := c.t.Trace(); rec != nil {
		rec.Emit(trace.WallEvent(kind, topo, "", detail))
	}
}

func (c wallClock) Observed() (int64, time.Time, bool) {
	return c.t.Totals().InterNodeSent, time.Now(), true
}

// ticker runs f every period on its own goroutine — the loop of the
// generator, the monitor and the supervisor — until stop is called or
// done (the engine's) closes.
type ticker struct {
	quit, exited chan struct{}
	once         sync.Once
}

func startTicker(done <-chan struct{}, period time.Duration, f func()) *ticker {
	tk := &ticker{quit: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(tk.exited)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-tk.quit:
				return
			case <-done:
				return
			case <-t.C:
				f()
			}
		}
	}()
	return tk
}

// stop halts the ticker and waits for its goroutine to exit. It is safe
// to call from several goroutines, concurrently or repeatedly.
func (tk *ticker) stop() {
	tk.once.Do(func() { close(tk.quit) })
	<-tk.exited
}
