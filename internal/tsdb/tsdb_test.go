package tsdb

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ts(sec int) int64 { return int64(sec) * int64(time.Second) }

func TestSeriesRingWrapKeepsNewest(t *testing.T) {
	s := newSeries(Counter, 4)
	for i := 0; i < 10; i++ {
		s.Append(ts(i), float64(i))
	}
	if len(s.Last(s.Cap())) != 4 {
		t.Fatalf("Len = %d, want 4", len(s.Last(s.Cap())))
	}
	pts := s.Last(10)
	if len(pts) != 4 {
		t.Fatalf("Last returned %d points, want 4", len(pts))
	}
	for i, p := range pts {
		want := float64(6 + i)
		if p.V != want || p.TS != ts(6+i) {
			t.Errorf("point %d = %+v, want v=%v", i, p, want)
		}
	}
	latest, ok := s.Latest()
	if !ok || latest.V != 9 {
		t.Errorf("Latest = %+v/%v, want 9", latest, ok)
	}
}

func TestSeriesQueries(t *testing.T) {
	now := time.Unix(100, 0)
	c := newSeries(Counter, 64)
	for i := 0; i <= 10; i++ {
		c.Append(ts(90+i), float64(i*50)) // +50/s for 10s ending at t=100
	}
	rate, ok := c.RateOver(now, 10*time.Second)
	if !ok || rate != 50 {
		t.Errorf("RateOver = %v/%v, want 50", rate, ok)
	}
	delta, ok := c.DeltaOver(now, 5*time.Second)
	if !ok || delta != 250 {
		t.Errorf("DeltaOver = %v/%v, want 250", delta, ok)
	}
	// Windows that trim to fewer than two samples report no data.
	if _, ok := c.RateOver(now, time.Millisecond); ok {
		t.Error("RateOver over an empty window reported ok")
	}

	// A counter that shrank (backend swap) clamps to zero rate, not negative.
	d := newSeries(Counter, 8)
	d.Append(ts(99), 100)
	d.Append(ts(100), 40)
	if rate, ok := d.RateOver(now, 5*time.Second); !ok || rate != 0 {
		t.Errorf("shrinking counter rate = %v/%v, want 0", rate, ok)
	}
}

func TestAppendAllocationFree(t *testing.T) {
	s := newSeries(Counter, 128)
	n := testing.AllocsPerRun(1000, func() {
		s.Append(1, 1)
	})
	if n != 0 {
		t.Errorf("Append allocates %.1f times per call, want 0", n)
	}
}

func TestDBRegisterIdempotent(t *testing.T) {
	db := NewDB(16)
	a := db.Register("throughput", Counter)
	b := db.Register("throughput", Counter)
	if a != b {
		t.Error("re-registering returned a different series")
	}
	db.Register("p99", Gauge)
	names := db.Names()
	if len(names) != 2 || names[0] != "throughput" || names[1] != "p99" {
		t.Errorf("Names = %v", names)
	}
	if db.Lookup("p99") == nil || db.Lookup("absent") != nil {
		t.Error("Lookup misbehaved")
	}
	if got := db.Lookup("p99").Kind(); got != Gauge {
		t.Errorf("kind = %v, want gauge", got)
	}
}

// TestReadersRaceWriter hammers Last/Since from several goroutines while
// a single writer laps the ring; every returned slice must be internally
// consistent (monotone timestamps, value == timestamp scheme preserved).
// Run under -race by the full ci.sh pass.
func TestReadersRaceWriter(t *testing.T) {
	s := newSeries(Counter, 32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pts := s.Last(32)
				for i := 1; i < len(pts); i++ {
					if pts[i].TS < pts[i-1].TS {
						t.Errorf("timestamps out of order: %v then %v", pts[i-1].TS, pts[i].TS)
						return
					}
				}
				for _, p := range pts {
					if p.V != float64(p.TS) {
						t.Errorf("torn point: ts=%d v=%v", p.TS, p.V)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= 100000; i++ {
		s.Append(i, float64(i))
	}
	close(stop)
	wg.Wait()
}

func TestSamplerTickAndLoop(t *testing.T) {
	db := NewDB(64)
	c := db.Register("x", Counter)
	var ticks atomic.Int64 // collect passes, read while the loop runs
	s := NewSampler(time.Millisecond, func(now time.Time) {
		c.Append(now.UnixNano(), float64(ticks.Add(1)))
	})
	base := time.Unix(50, 0)
	for i := 0; i < 3; i++ {
		s.Tick(base.Add(time.Duration(i) * time.Second))
	}
	if ticks.Load() != 3 || len(c.Last(c.Cap())) != 3 {
		t.Fatalf("ticks=%d len=%d, want 3/3", ticks.Load(), len(c.Last(c.Cap())))
	}
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	if ticks.Load() < 5 {
		t.Errorf("background loop ticked only %d times", ticks.Load())
	}
	after := ticks.Load()
	time.Sleep(5 * time.Millisecond)
	if ticks.Load() != after {
		t.Error("sampler kept ticking after Stop")
	}
}
