package coord

import (
	"errors"
	"testing"
	"time"
)

func TestSessionEphemeralLifecycle(t *testing.T) {
	eng, s := newTestStore()
	sess, err := s.NewSession(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Alive() || sess.id == 0 {
		t.Fatal("fresh session not alive")
	}
	if err := sess.CreateEphemeral("/hb", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Refreshed every 10s: survives well past the 30s timeout.
	tick := eng.Every(10*time.Second, 10*time.Second, func() {
		if eng.Now() <= 60*1e9 {
			sess.Refresh()
		}
	})
	if err := eng.RunUntil(50 * 1e9); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/hb") || !sess.Alive() {
		t.Fatal("refreshed session expired early")
	}
	// Refreshes stop at 60s: expiry ~90s deletes the ephemeral node.
	if err := eng.RunUntil(120 * 1e9); err != nil {
		t.Fatal(err)
	}
	tick.Stop()
	if s.Exists("/hb") {
		t.Fatal("ephemeral node survived session expiry")
	}
	if sess.Alive() {
		t.Fatal("session still alive after expiry")
	}
	if sess.Refresh() {
		t.Fatal("dead session refreshed")
	}
	if err := sess.CreateEphemeral("/hb2", nil); err == nil {
		t.Fatal("dead session created a node")
	}
}

func TestSessionExpiryNotifiesWatchers(t *testing.T) {
	eng, s := newTestStore()
	sess, err := s.NewSession(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateEphemeral("/sup", nil); err != nil {
		t.Fatal(err)
	}
	var deleted bool
	s.WatchData("/sup", func() {
		if _, _, err := s.Get("/sup"); errors.Is(err, ErrNoNode) {
			deleted = true
		}
	})
	if err := eng.RunUntil(10 * 1e9); err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Fatal("watcher not notified of ephemeral deletion")
	}
}

func TestSessionSetEphemeralAndClose(t *testing.T) {
	eng, s := newTestStore()
	sess, err := s.NewSession(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetEphemeral("/e", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetEphemeral("/e", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, ver, err := s.Get("/e")
	if err != nil || string(data) != "v2" || ver != 1 {
		t.Fatalf("Get = %q v%d err=%v", data, ver, err)
	}
	// Unrefreshed, the session expires after its minute.
	if err := eng.RunUntil(61 * 1e9); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/e") {
		t.Fatal("session end did not delete ephemeral node")
	}
}

func TestSessionBadTimeout(t *testing.T) {
	_, s := newTestStore()
	if _, err := s.NewSession(0); err == nil {
		t.Fatal("zero timeout accepted")
	}
}
