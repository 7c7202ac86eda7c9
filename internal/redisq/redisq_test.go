package redisq

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestPushPopFIFO(t *testing.T) {
	s := NewServer()
	if n := s.RPush("q", "a", "b", "c"); n != 3 {
		t.Fatalf("RPush len = %d, want 3", n)
	}
	for _, want := range []string{"a", "b", "c"} {
		got, ok := s.LPop("q")
		if !ok || got != want {
			t.Fatalf("LPop = (%q, %v), want %q", got, ok, want)
		}
	}
	if _, ok := s.LPop("q"); ok {
		t.Fatal("LPop on empty list returned a value")
	}
}

func TestIndependentKeys(t *testing.T) {
	s := NewServer()
	s.RPush("a", "1")
	s.RPush("b", "2")
	if v, _ := s.LPop("b"); v != "2" {
		t.Fatalf("cross-key interference: got %q", v)
	}
}

// Property: every pushed value is popped exactly once, in push order,
// regardless of how pops interleave with pushes.
func TestPropertyFIFOConservation(t *testing.T) {
	f := func(ops []bool) bool {
		s := NewServer()
		var delivered []string
		pushes := 0
		for i, pop := range ops {
			v := strconv.Itoa(i)
			s.RPush("q", v)
			pushes++
			if pop {
				if x, ok := s.LPop("q"); ok {
					delivered = append(delivered, x)
				}
			}
		}
		// Drain the rest.
		for {
			x, ok := s.LPop("q")
			if !ok {
				break
			}
			delivered = append(delivered, x)
		}
		if len(delivered) != pushes {
			return false
		}
		for i, v := range delivered {
			if v != strconv.Itoa(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
