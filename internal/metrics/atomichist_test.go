package metrics

import (
	"sync"
	"testing"
)

// TestAtomicHistogramMatchesHistogram records the same values into both
// implementations and compares the snapshot bin-for-bin.
func TestAtomicHistogramMatchesHistogram(t *testing.T) {
	ref := NewHistogram(1e-4, 1e4, 10)
	ah := NewAtomicHistogram(1e-4, 1e4, 10)
	vals := []float64{0.00005, 0.001, 0.01, 0.5, 3.7, 42, 999, 5e4, -1, 0}
	for _, v := range vals {
		ref.Add(v)
		ah.Add(v)
	}
	snap := ah.Snapshot()
	if snap.Count() != ref.Count() {
		t.Fatalf("count %d, want %d", snap.Count(), ref.Count())
	}
	rb, sb := ref.Buckets(), snap.Buckets()
	if len(rb) != len(sb) {
		t.Fatalf("bucket sets differ: %v vs %v", sb, rb)
	}
	for i := range rb {
		if rb[i] != sb[i] {
			t.Fatalf("bucket %d: %+v, want %+v", i, sb[i], rb[i])
		}
	}
	if snap.Max() != ref.Max() {
		t.Errorf("max %v, want %v", snap.Max(), ref.Max())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if snap.Quantile(q) != ref.Quantile(q) {
			t.Errorf("q%v: %v, want %v", q, snap.Quantile(q), ref.Quantile(q))
		}
	}
}

// TestAtomicHistogramConcurrentAdds checks that counts conserve under
// concurrent writers and readers (meaningful under -race).
func TestAtomicHistogramConcurrentAdds(t *testing.T) {
	ah := NewProcLatencyHistogram()
	const writers, per = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := ah.Snapshot()
				var n int64
				for _, b := range s.Buckets() {
					n += b.Count
				}
				if n != s.Count() {
					t.Errorf("torn snapshot: bins sum to %d, count %d", n, s.Count())
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ah.Add(float64(w+1) * 0.01)
			}
		}(w)
	}
	for ah.Snapshot().Count() < writers*per {
	}
	close(stop)
	wg.Wait()
	if got := ah.Snapshot().Count(); got != writers*per {
		t.Fatalf("count %d, want %d", got, writers*per)
	}
}
