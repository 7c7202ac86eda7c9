package tsdb

import (
	"sync"
	"time"
)

// DefaultSampleEvery is the cadence used when none is configured.
const DefaultSampleEvery = time.Second

// Sampler drives a collect function on a fixed cadence. The collect
// function is the single writer for every series it appends to: Tick and
// the background loop serialize through one mutex, so collectors never
// run concurrently with themselves.
type Sampler struct {
	every   time.Duration
	collect func(now time.Time)

	mu      sync.Mutex // serializes collect calls
	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler returns a sampler calling collect every interval
// (DefaultSampleEvery when <= 0). It does not start sampling; call Start
// for the background loop or Tick for manual, deterministic advancement.
func NewSampler(every time.Duration, collect func(now time.Time)) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Sampler{every: every, collect: collect}
}

// Tick runs one collection pass stamped now. Safe to call concurrently
// with the background loop — passes never overlap.
func (s *Sampler) Tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collect(now)
}

// Start launches the background sampling loop. Idempotent.
func (s *Sampler) Start() {
	s.startMu.Lock()
	defer s.startMu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.Tick(now)
		}
	}
}

// Stop halts the background loop and waits for any in-flight pass to
// finish. Idempotent; Start may be called again afterwards.
func (s *Sampler) Stop() {
	s.startMu.Lock()
	defer s.startMu.Unlock()
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}
