package textdata

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCorpusNonTrivial(t *testing.T) {
	if NumLines() < 40 {
		t.Fatalf("corpus has only %d lines", NumLines())
	}
}

func TestLineCycles(t *testing.T) {
	n := NumLines()
	if Line(0) != Line(n) || Line(3) != Line(3+2*n) {
		t.Fatal("Line does not cycle")
	}
}

func TestSplitWords(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Alice was beginning", []string{"alice", "was", "beginning"}},
		{"Oh dear! Oh dear!", []string{"oh", "dear", "oh", "dear"}},
		{"waistcoat-pocket, and", []string{"waistcoat-pocket", "and"}},
		{"Ma'am, is this", []string{"ma'am", "is", "this"}},
		{"  ", nil},
		{"...!!!", nil},
		{"'quoted'", []string{"quoted"}},
	}
	for _, tt := range tests {
		got := SplitWords(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("SplitWords(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("SplitWords(%q) = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}

func TestCorpusWordFrequencySkewed(t *testing.T) {
	// "the" must dominate — fields grouping load imbalance depends on it.
	counts := make(map[string]int)
	for _, l := range lines {
		for _, w := range SplitWords(l) {
			counts[w]++
		}
	}
	if counts["the"] < 30 {
		t.Fatalf("'the' appears %d times; corpus not realistic", counts["the"])
	}
	if counts["alice"] < 5 {
		t.Fatalf("'alice' appears %d times", counts["alice"])
	}
	if len(counts) < 200 {
		t.Fatalf("vocabulary %d too small", len(counts))
	}
}

// Property: tokens are lowercase, non-empty, and free of separators.
func TestPropertySplitWordsClean(t *testing.T) {
	f := func(i uint16) bool {
		for _, w := range SplitWords(Line(int(i))) {
			if w == "" || w != strings.ToLower(w) {
				return false
			}
			if strings.ContainsAny(w, " \t.,!?:;()") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
