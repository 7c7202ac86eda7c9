package docstore

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestInsertAndCount(t *testing.T) {
	s := NewStore()
	s.Insert("logs", Document{"host": "a", "status": 200})
	s.Insert("logs", Document{"host": "b", "status": 404})
	if got := s.Count("logs"); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if got := s.Count("empty"); got != 0 {
		t.Fatalf("Count(empty) = %d, want 0", got)
	}
}

func TestInsertCopiesDocument(t *testing.T) {
	s := NewStore()
	doc := Document{"k": "v"}
	s.Insert("c", doc)
	doc["k"] = "mutated"
	got := s.Find("c", "k", "v")
	if len(got) != 1 {
		t.Fatal("mutation of caller's doc leaked into the store")
	}
}

func TestFindReturnsCopies(t *testing.T) {
	s := NewStore()
	s.Insert("c", Document{"k": "v", "n": 1})
	got := s.Find("c", "k", "v")
	got[0]["n"] = 99
	again := s.Find("c", "k", "v")
	if again[0]["n"] != 1 {
		t.Fatal("Find aliases stored documents")
	}
}

func TestFindByField(t *testing.T) {
	s := NewStore()
	s.Insert("c", Document{"status": 200})
	s.Insert("c", Document{"status": 404})
	s.Insert("c", Document{"status": 200})
	if got := len(s.Find("c", "status", 200)); got != 2 {
		t.Fatalf("Find = %d docs, want 2", got)
	}
	if got := s.Find("c", "status", 500); got != nil {
		t.Fatalf("Find no-match = %v, want nil", got)
	}
}

func TestIncCounter(t *testing.T) {
	s := NewStore()
	if got := s.IncCounter("words", "alice", 1); got != 1 {
		t.Fatalf("IncCounter = %d, want 1", got)
	}
	if got := s.IncCounter("words", "alice", 2); got != 3 {
		t.Fatalf("IncCounter = %d, want 3", got)
	}
	if got := s.Counters("words")["alice"]; got != 3 {
		t.Fatalf("Counter = %d, want 3", got)
	}
	if got := s.Counters("words")["rabbit"]; got != 0 {
		t.Fatalf("Counter(absent) = %d, want 0", got)
	}
	all := s.Counters("words")
	if len(all) != 1 || all["alice"] != 3 {
		t.Fatalf("Counters = %v", all)
	}
	all["alice"] = 99
	if s.Counters("words")["alice"] != 3 {
		t.Fatal("Counters aliases internal state")
	}
}

func TestTotalWrites(t *testing.T) {
	s := NewStore()
	s.Insert("a", Document{})
	s.IncCounter("b", "k", 1)
	if got := s.TotalWrites(); got != 2 {
		t.Fatalf("TotalWrites = %d, want 2", got)
	}
}

// Property: counter value equals the sum of all applied deltas.
func TestPropertyCounterSums(t *testing.T) {
	f := func(deltas []int16) bool {
		s := NewStore()
		var want int64
		for i, d := range deltas {
			key := "k" + strconv.Itoa(i%3)
			s.IncCounter("c", key, int64(d))
			if key == "k0" {
				want += int64(d)
			}
		}
		return s.Counters("c")["k0"] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
