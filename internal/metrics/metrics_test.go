package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"tstorm/internal/sim"
)

func TestEWMAFirstSampleInitializes(t *testing.T) {
	e := NewEWMA(0.5)
	if e.seen {
		t.Fatal("fresh EWMA reports initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first Update = %v, want 10", got)
	}
	if !e.seen {
		t.Fatal("EWMA not initialized after a sample")
	}
}

func TestEWMAPaperFormula(t *testing.T) {
	// Y = αY + (1−α)·S with α = 0.5: 10 then 20 → 15, then 0 → 7.5.
	e := NewEWMA(0.5)
	e.Update(10)
	if got := e.Update(20); got != 15 {
		t.Fatalf("Update = %v, want 15", got)
	}
	if got := e.Update(0); got != 7.5 {
		t.Fatalf("Update = %v, want 7.5", got)
	}
	if e.Value() != 7.5 {
		t.Fatalf("Value = %v, want 7.5", e.Value())
	}
}

func TestEWMAAlphaExtremes(t *testing.T) {
	// α = 0: estimate tracks the latest sample exactly.
	e0 := NewEWMA(0)
	e0.Update(5)
	if got := e0.Update(99); got != 99 {
		t.Fatalf("alpha=0 Update = %v, want 99", got)
	}
	// α = 1: estimate never moves after initialization.
	e1 := NewEWMA(1)
	e1.Update(5)
	if got := e1.Update(99); got != 5 {
		t.Fatalf("alpha=1 Update = %v, want 5", got)
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestPropertyEWMABetweenOldAndSample(t *testing.T) {
	f := func(samples []float64, alphaRaw uint8) bool {
		alpha := float64(alphaRaw) / 255
		e := NewEWMA(alpha)
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			old := e.Value()
			wasInit := e.seen
			got := e.Update(s)
			if !wasInit {
				if got != s {
					return false
				}
				continue
			}
			lo, hi := math.Min(old, s), math.Max(old, s)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func secs(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(time.Minute)
	s.Add(secs(10), 2)
	s.Add(secs(50), 4)
	s.Add(secs(70), 10)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d buckets, want 2", len(pts))
	}
	if pts[0].Start != 0 || pts[0].Mean != 3 || pts[0].Count != 2 || pts[0].Max != 4 {
		t.Fatalf("bucket 0 = %+v", pts[0])
	}
	if pts[1].Start != secs(60) || pts[1].Mean != 10 {
		t.Fatalf("bucket 1 = %+v", pts[1])
	}
	if totalCount(s) != 3 {
		t.Fatalf("total count = %d, want 3", totalCount(s))
	}
	if s.width != time.Minute {
		t.Fatalf("Width = %v", s.width)
	}
}

func TestSeriesMeanAfter(t *testing.T) {
	s := NewSeries(time.Minute)
	s.Add(secs(10), 100) // bucket starting at 0: excluded below
	s.Add(secs(70), 2)
	s.Add(secs(130), 4)
	got := s.MeanAfter(secs(60))
	if got != 3 {
		t.Fatalf("MeanAfter = %v, want 3", got)
	}
	if !math.IsNaN(s.MeanAfter(secs(100000))) {
		t.Fatal("MeanAfter with no samples should be NaN")
	}
}

func TestSeriesZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSeries(0) did not panic")
		}
	}()
	NewSeries(0)
}

func TestPropertySeriesConservesSumAndCount(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewSeries(time.Minute)
		var sum float64
		for i, r := range raw {
			v := float64(r)
			sum += v
			s.Add(secs(float64(i)*7.3), v)
		}
		var gotSum float64
		var gotCount int64
		for _, p := range s.Points() {
			gotSum += p.Sum
			gotCount += p.Count
		}
		return gotCount == int64(len(raw)) && math.Abs(gotSum-sum) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepSeries(t *testing.T) {
	var s StepSeries
	if stepAt(&s, secs(5)) != 0 || s.Last() != 0 {
		t.Fatal("empty StepSeries should read 0")
	}
	s.Set(secs(10), 10)
	s.Set(secs(20), 10) // duplicate value coalesced
	s.Set(secs(30), 7)
	if got := len(s.Steps()); got != 2 {
		t.Fatalf("steps = %d, want 2", got)
	}
	if stepAt(&s, secs(5)) != 0 || stepAt(&s, secs(15)) != 10 || stepAt(&s, secs(30)) != 7 || stepAt(&s, secs(99)) != 7 {
		t.Fatalf("At readings wrong: %v %v %v %v", stepAt(&s, secs(5)), stepAt(&s, secs(15)), stepAt(&s, secs(30)), stepAt(&s, secs(99)))
	}
	if s.Last() != 7 {
		t.Fatalf("Last = %v, want 7", s.Last())
	}
}

func TestStepSeriesSameInstantOverwrites(t *testing.T) {
	var s StepSeries
	s.Set(secs(10), 3)
	s.Set(secs(10), 9)
	if got := stepAt(&s, secs(10)); got != 9 {
		t.Fatalf("At = %v, want 9", got)
	}
	if len(s.Steps()) != 1 {
		t.Fatalf("steps = %d, want 1", len(s.Steps()))
	}
	// Overwrite back to the predecessor's value coalesces away the step.
	s.Set(secs(0), 1)
	s.Set(secs(20), 5)
	s.Set(secs(20), 1)
	if got := len(s.Steps()); got != 2 {
		t.Fatalf("steps after coalescing overwrite = %d, want 2", got)
	}
}

func TestTrafficMatrixAddGetDrain(t *testing.T) {
	m := NewTrafficMatrix()
	m.Add(1, 2, 5)
	m.Add(1, 2, 3)
	m.Add(2, 1, 1)
	if got := cell(m, 1, 2); got != 8 {
		t.Fatalf("Get = %v, want 8", got)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[Pair{1, 2}] != 8 {
		t.Fatalf("Snapshot = %v", snap)
	}
	drained := m.Drain()
	if len(drained) != 2 {
		t.Fatalf("Drain = %v", drained)
	}
	if got := cell(m, 1, 2); got != 0 {
		t.Fatalf("after Drain Get = %v, want 0", got)
	}
	// Snapshot is a copy: mutating it must not affect the matrix.
	m.Add(3, 4, 1)
	s2 := m.Snapshot()
	s2[Pair{3, 4}] = 99
	if cell(m, 3, 4) != 1 {
		t.Fatal("Snapshot aliases the matrix")
	}
	if cell(m, -1, 4) != 0 || cell(m, 99, 4) != 0 {
		t.Fatal("Get outside the rows should read 0")
	}
}

// TestTrafficMatrixMatchesMap holds the dense rows to the map they
// replaced on a seeded stream of adds and drains: the same pairs — zero
// counts included — with the same sums, bit for bit.
func TestTrafficMatrixMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	m := NewTrafficMatrix()
	ref := make(map[Pair]float64)
	check := func(what string, got map[Pair]float64) {
		t.Helper()
		if len(got) != len(ref) {
			t.Fatalf("%s: %d pairs, want %d", what, len(got), len(ref))
		}
		for p, v := range ref {
			if g, ok := got[p]; !ok || math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s: pair %v = %v (present %v), want %v", what, p, g, ok, v)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		from, to := rng.IntN(40), rng.IntN(60)
		n := float64(rng.IntN(3)) * 0.7 // zero counts must appear too
		m.Add(from, to, n)
		ref[Pair{from, to}] += n
		if got := cell(m, from, to); got != ref[Pair{from, to}] {
			t.Fatalf("Get(%d, %d) = %v, want %v", from, to, got, ref[Pair{from, to}])
		}
		if rng.IntN(1000) == 0 {
			check("Snapshot", m.Snapshot())
			check("Drain", m.Drain())
			ref = make(map[Pair]float64)
		}
	}
	check("Drain", m.Drain())
}

// BenchmarkTrafficMatrixAdd is one send's update in steady state — Word
// Count's 45 executors, each sending to a handful of others, in a window
// after the first — where the rows already hold every pair: ci.sh gates it
// at 0 allocs/op.
func BenchmarkTrafficMatrixAdd(b *testing.B) {
	m := NewTrafficMatrix()
	const sources, fanout = 45, 8
	for from := 0; from < sources; from++ {
		for k := 0; k < fanout; k++ {
			m.Add(from, (from*7+k*13)%sources, 1)
		}
	}
	m.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % sources
		m.Add(from, (from*7+(i/sources%fanout)*13)%sources, 1)
	}
}

// totalCount is the number of samples across a series' buckets.
func totalCount(s *Series) int64 {
	var n int64
	for _, p := range s.Points() {
		n += p.Count
	}
	return n
}

// stepAt is the gauge value at instant t (0 before the first step).
func stepAt(s *StepSeries, t sim.Time) float64 {
	v := 0.0
	for _, st := range s.Steps() {
		if st.At > t {
			break
		}
		v = st.Value
	}
	return v
}

// cell is the current count for a pair (0 when absent or out of range).
func cell(m *TrafficMatrix, from, to int) float64 {
	if from < 0 || from >= len(m.rows) {
		return 0
	}
	for _, c := range m.rows[from] {
		if c.to == to {
			return c.n
		}
	}
	return 0
}
