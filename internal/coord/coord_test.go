package coord

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"tstorm/internal/sim"
)

func newTestStore() (*sim.Engine, *Store) {
	eng := sim.NewEngine(1)
	return eng, NewStore(eng, 5*time.Millisecond)
}

func TestCreateGetSetDelete(t *testing.T) {
	eng, s := newTestStore()
	if err := s.Create("/a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	data, ver, err := s.Get("/a")
	if err != nil || string(data) != "one" || ver != 0 {
		t.Fatalf("Get = %q v%d err=%v", data, ver, err)
	}
	ver, err = s.Set("/a", []byte("two"), -1)
	if err != nil || ver != 1 {
		t.Fatalf("Set = v%d err=%v", ver, err)
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a") {
		t.Fatal("deleted node still exists")
	}
	_ = eng.Run()
}

func TestCreateErrors(t *testing.T) {
	_, s := newTestStore()
	if err := s.Create("/a/b", nil); !errors.Is(err, ErrNoNode) {
		t.Fatalf("create with missing parent = %v, want ErrNoNode", err)
	}
	if err := s.Create("/a", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/a", nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate create = %v, want ErrNodeExists", err)
	}
	if err := s.Create("/", nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("create root = %v, want ErrNodeExists", err)
	}
	for _, bad := range []string{"", "a", "/a/", "//", "/a//b"} {
		if err := s.Create(bad, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q) = %v, want ErrBadPath", bad, err)
		}
	}
}

func TestCreateAll(t *testing.T) {
	_, s := newTestStore()
	if err := s.CreateAll("/a/b/c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if !s.Exists(p) {
			t.Fatalf("%s missing after CreateAll", p)
		}
	}
	data, _, _ := s.Get("/a/b/c")
	if string(data) != "x" {
		t.Fatalf("leaf data = %q", data)
	}
	if err := s.CreateAll("/a/b/c", []byte("y")); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("CreateAll over existing leaf = %v, want ErrNodeExists", err)
	}
}

func TestSetVersionCheck(t *testing.T) {
	_, s := newTestStore()
	if err := s.Create("/a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("/a", []byte("x"), 5); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Set with wrong version = %v, want ErrBadVersion", err)
	}
	if _, err := s.Set("/a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("/missing", nil, -1); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Set missing = %v, want ErrNoNode", err)
	}
}

func TestSetOrCreate(t *testing.T) {
	_, s := newTestStore()
	ver, err := s.SetOrCreate("/x/y", []byte("a"))
	if err != nil || ver != 0 {
		t.Fatalf("SetOrCreate fresh = v%d err=%v", ver, err)
	}
	ver, err = s.SetOrCreate("/x/y", []byte("b"))
	if err != nil || ver != 1 {
		t.Fatalf("SetOrCreate existing = v%d err=%v", ver, err)
	}
	data, _, _ := s.Get("/x/y")
	if string(data) != "b" {
		t.Fatalf("data = %q, want b", data)
	}
}

func TestDeleteErrors(t *testing.T) {
	_, s := newTestStore()
	if err := s.Delete("/nope"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Delete missing = %v, want ErrNoNode", err)
	}
	if err := s.Delete("/"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("Delete root = %v, want ErrBadPath", err)
	}
	_ = s.CreateAll("/a/b", nil)
	if err := s.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Delete non-empty = %v, want ErrNotEmpty", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	_, s := newTestStore()
	_ = s.Create("/a", []byte("abc"))
	data, _, _ := s.Get("/a")
	data[0] = 'X'
	again, _, _ := s.Get("/a")
	if string(again) != "abc" {
		t.Fatal("Get aliases internal data")
	}
}

func TestWatchDataDeliveredWithLatency(t *testing.T) {
	eng, s := newTestStore()
	// Each delivery reads the node as the watcher sees it then.
	type seen struct {
		data    string
		version int
		err     error
	}
	var events []seen
	var at []sim.Time
	s.WatchData("/a", func() {
		data, version, err := s.Get("/a")
		events = append(events, seen{string(data), version, err})
		at = append(at, eng.Now())
	})
	eng.After(time.Second, func() {
		_ = s.Create("/a", []byte("v0"))
	})
	eng.After(2*time.Second, func() {
		_, _ = s.Set("/a", []byte("v1"), -1)
	})
	eng.After(3*time.Second, func() {
		_ = s.Delete("/a")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	if events[0].err != nil || events[0].data != "v0" || events[0].version != 0 {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].err != nil || events[1].version != 1 {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if !errors.Is(events[2].err, ErrNoNode) {
		t.Fatalf("event 2 = %+v", events[2])
	}
	// Delivered after the 5ms notify delay, not at the mutation instant.
	if at[0] != sim.Time(time.Second+5*time.Millisecond) {
		t.Fatalf("delivery at %v, want 1.005s", at[0])
	}
}

func TestWatchCancel(t *testing.T) {
	eng, s := newTestStore()
	n := 0
	w := s.WatchData("/a", func() { n++ })
	eng.After(time.Second, func() {
		_ = s.Create("/a", nil) // notification scheduled...
		w.Cancel()              // ...but cancelled before delivery
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cancelled watcher fired %d times", n)
	}
	var nilWatch *Watch
	nilWatch.Cancel() // must not panic
}

// Property: after any sequence of SetOrCreate writes, the last write wins
// and the version equals the number of overwrites.
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(vals [][]byte) bool {
		_, s := newTestStore()
		if len(vals) == 0 {
			return true
		}
		var lastVer int
		for _, v := range vals {
			ver, err := s.SetOrCreate("/k", v)
			if err != nil {
				return false
			}
			lastVer = ver
		}
		data, ver, err := s.Get("/k")
		if err != nil || ver != lastVer || ver != len(vals)-1 {
			return false
		}
		return string(data) == string(vals[len(vals)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
