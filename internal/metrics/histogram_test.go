package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []float64{1, 2, 3, 4, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if mean := h.Sum() / float64(h.Count()); mean != 22 {
		t.Fatalf("Mean = %v, want 22", mean)
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %v, want 100", h.Max())
	}
	// Median within one bucket width of 3.
	med := h.Quantile(0.5)
	if med < 2 || med > 4 {
		t.Fatalf("median = %v, want ≈3", med)
	}
	// p100 never exceeds the true max.
	if h.Quantile(1) > 100 {
		t.Fatalf("p100 = %v > max", h.Quantile(1))
	}
}

func TestHistogramIgnoresBadValues(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(0)
	h.Add(-5)
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	if h.Count() != 0 {
		t.Fatalf("bad values recorded: %d", h.Count())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(1, 100, 10)
	h.Add(0.0001) // below lo → first bin
	h.Add(1e9)    // above hi → last bin
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0.25); got > 1.3 {
		t.Fatalf("clamped-low quantile = %v", got)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, c := range [][3]float64{{0, 10, 5}, {10, 5, 5}, {1, 10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", c)
				}
			}()
			NewHistogram(c[0], c[1], int(c[2]))
		}()
	}
}

// Property: quantile estimates carry bounded relative error vs exact
// order statistics (bucket ratio at 20/decade is 10^(1/20) ≈ 1.122).
func TestPropertyQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(n uint8) bool {
		count := int(n)%500 + 50
		h := NewLatencyHistogram()
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = math.Exp(rng.Float64()*12 - 3) // ~0.05ms..8000ms
			h.Add(vals[i])
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := vals[int(math.Ceil(q*float64(count)))-1]
			got := h.Quantile(q)
			if got < exact/1.3 || got > exact*1.3 {
				t.Logf("q=%v exact=%v got=%v", q, exact, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Add(math.Exp(rng.Float64() * 10))
	}
	prev := 0.0
	for q := 0.05; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}
