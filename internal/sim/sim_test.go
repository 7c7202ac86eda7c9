package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(90 * time.Second)
	if got := t1.Seconds(); got != 90 {
		t.Fatalf("Seconds() = %v, want 90", got)
	}
	if got := t1.Sub(t0); got != 90*time.Second {
		t.Fatalf("Sub = %v, want 90s", got)
	}
	if got := t1.String(); got != "1m30s" {
		t.Fatalf("String = %q, want 1m30s", got)
	}
	if got := t1.Duration(); got != 90*time.Second {
		t.Fatalf("Duration = %v, want 90s", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(3*time.Second, func() { got = append(got, 3) })
	e.After(1*time.Second, func() { got = append(got, 1) })
	e.After(2*time.Second, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(time.Second), func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want insertion order", got)
		}
	}
}

func TestSchedulingInsideCallback(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	e.After(time.Second, func() {
		fired = append(fired, "outer")
		e.After(time.Second, func() { fired = append(fired, "inner") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(Time(0), func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-time.Second, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("callback did not run")
	}
	if e.Now() != Time(0) {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := e.After(time.Second, func() { ran = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled timer fired")
	}
}

func TestCancelAfterFiringReportsFalse(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(time.Second, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Cancel() {
		t.Fatal("Cancel after firing should report false")
	}
}

func TestNilTimerCancel(t *testing.T) {
	var tm *Timer
	if tm.Cancel() {
		t.Fatal("nil timer Cancel should report false")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine(1)
	var at []float64
	tk := e.Every(10*time.Second, 20*time.Second, func() {
		at = append(at, e.Now().Seconds())
	})
	if err := e.RunUntil(Time(75 * time.Second)); err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	want := []float64{10, 30, 50, 70}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every with zero period did not panic")
		}
	}()
	NewEngine(1).Every(0, 0, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {})
	e.After(time.Minute, func() {})
	if err := e.RunUntil(Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(30*time.Second) {
		t.Fatalf("Now = %v, want 30s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// The later event is still deliverable.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(time.Minute) {
		t.Fatalf("Now = %v, want 1m", e.Now())
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		_ = e.Run()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsFiredCountsOnlyFired(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {})
	tm := e.After(2*time.Second, func() {})
	tm.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", e.EventsFired())
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	run := func(seed uint64) []int {
		e := NewEngine(seed)
		var draws []int
		e.Every(0, time.Second, func() {
			draws = append(draws, e.Rand().IntN(1000))
		})
		_ = e.RunUntil(Time(10 * time.Second))
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

// Property: regardless of the (arbitrary) order delays are scheduled in,
// events fire sorted by delay, and the clock is monotonically non-decreasing.
func TestPropertyFiringOrderSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []uint16
		last := Time(-1)
		monotonic := true
		for _, d := range delays {
			d := d
			e.After(time.Duration(d)*time.Millisecond, func() {
				if e.Now() < last {
					monotonic = false
				}
				last = e.Now()
				fired = append(fired, d)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !monotonic || len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the rest to fire.
func TestPropertyCancellationSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		e := NewEngine(3)
		fired := make([]bool, count)
		timers := make([]*Timer, count)
		for i := 0; i < count; i++ {
			i := i
			timers[i] = e.After(time.Duration(i+1)*time.Second, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				timers[i].Cancel()
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			cancelled := mask&(1<<uint(i)) != 0
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, next)
		}
	}
	e.After(time.Microsecond, next)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
