package metrics

import (
	"sync"
	"testing"
)

func TestSyncTrafficMatrixConcurrent(t *testing.T) {
	m := NewSyncTrafficMatrix()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Add(w, (w+1)%workers, 1)
			}
		}(w)
	}
	wg.Wait()
	drained := m.Drain()
	total := 0.0
	for _, v := range drained {
		total += v
	}
	if total != workers*perWorker {
		t.Fatalf("total = %v, want %d", total, workers*perWorker)
	}
	if len(drained) != workers {
		t.Fatalf("drained %d pairs, want %d", len(drained), workers)
	}
	if len(m.Drain()) != 0 {
		t.Fatalf("matrix not empty after drain")
	}
}

func TestSyncHistogramConcurrentAndDrain(t *testing.T) {
	h := NewSyncLatencyHistogram()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Add(1.0)
			}
		}()
	}
	wg.Wait()
	if got := h.h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	window := h.Drain()
	if window.Count() != workers*perWorker {
		t.Fatalf("drained count = %d, want %d", window.Count(), workers*perWorker)
	}
	if h.h.Count() != 0 {
		t.Fatalf("histogram not empty after drain: %d", h.h.Count())
	}
	// The replacement histogram keeps the original shape.
	h.Add(2.5)
	if got := h.h.Quantile(1); got <= 0 {
		t.Fatalf("quantile after drain = %v, want > 0", got)
	}
}
