package logx

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func fixed(l *Logger) *Logger {
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLogfmtLineShape(t *testing.T) {
	var b strings.Builder
	l := fixed(New(&b, Info)).With("worker", "node01:6700").With("gen", "3")
	l.Infof("configured %d executors", 4)
	want := `ts=2026-08-08T12:00:00.000Z level=info worker=node01:6700 gen=3 msg="configured 4 executors"` + "\n"
	if b.String() != want {
		t.Errorf("line = %q\nwant   %q", b.String(), want)
	}
}

func TestLevelGating(t *testing.T) {
	var b strings.Builder
	l := New(&b, Warn)
	l.Infof("nope")
	l.Warnf("yes")
	l.Errorf("also")
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Errorf("gated output: %q", b.String())
	}
	if !l.Enabled(Error) || l.Enabled(Info) {
		t.Error("Enabled disagrees with the threshold")
	}
	off := New(&b, Off)
	off.Errorf("discarded")
	if off.Enabled(Error) || len(strings.Split(strings.TrimSpace(b.String()), "\n")) != 2 {
		t.Error("a logger at Off is enabled or wrote")
	}
}

func TestValueQuoting(t *testing.T) {
	var b strings.Builder
	l := fixed(New(&b, Info)).With("k", `a "b"`+"\nc")
	l.Infof("plain")
	got := b.String()
	if !strings.Contains(got, `k="a \"b\"\nc"`) {
		t.Errorf("quoting wrong: %q", got)
	}
	if strings.Count(got, "\n") != 1 {
		t.Errorf("multi-line output: %q", got)
	}
}

func TestWithDoesNotMutateParent(t *testing.T) {
	var b strings.Builder
	parent := fixed(New(&b, Info)).With("worker", "w1")
	c1 := parent.With("gen", "1")
	c2 := parent.With("gen", "2")
	c1.Infof("one")
	c2.Infof("two")
	parent.Infof("bare")
	out := b.String()
	if !strings.Contains(out, "gen=1") || !strings.Contains(out, "gen=2") {
		t.Errorf("children missing fields: %q", out)
	}
	if strings.Contains(strings.Split(out, "\n")[2], "gen=") {
		t.Errorf("parent grew a child's field: %q", out)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": Debug, "INFO": Info, "warn": Warn, "warning": Warn,
		"error": Error, "off": Off, "none": Off, "": Info, "bogus": Info,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestConcurrentWriters checks line atomicity under -race: every line
// must be complete, no interleaving.
func TestConcurrentWriters(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	l := New(w, Info)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := l.With("worker", "w")
			for i := 0; i < 200; i++ {
				child.Infof("g%d i%d", g, i)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	mu.Unlock()
	if len(lines) != 800 {
		t.Fatalf("%d lines, want 800", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "ts=") || !strings.Contains(ln, " msg=") {
			t.Fatalf("torn line: %q", ln)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
