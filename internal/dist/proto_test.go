package dist

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
)

// TestControlLineRoundTrip sends control messages longer than the
// reader's buffer back to back: each arrives whole and in order.
func TestControlLineRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	out, in := newLineConn(a), newLineConn(b)
	names := []string{strings.Repeat("w", 200<<10), "short", strings.Repeat("v", 70<<10)}
	go func() {
		for _, name := range names {
			if err := out.send(&msg{Type: msgConfig, Subs: []submission{{Workload: name}}}); err != nil {
				return
			}
		}
	}()
	for i, want := range names {
		m, err := in.recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.Type != msgConfig || len(m.Subs) != 1 || m.Subs[0].Workload != want {
			t.Fatalf("message %d: got a %d-byte workload name, want %d bytes", i, len(m.Subs[0].Workload), len(want))
		}
	}
}

// TestControlLineBounded: a peer that writes past maxControlLine without a
// newline gets an error once that much is buffered, not unbounded growth.
func TestControlLineBounded(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		chunk := bytes.Repeat([]byte("x"), 1<<20)
		for sent := 0; sent <= 2*maxControlLine; sent += len(chunk) {
			if _, err := a.Write(chunk); err != nil {
				return // the reader gave up and closed
			}
		}
	}()
	l := newLineConn(b)
	_, err := l.recv()
	if !errors.Is(err, errLineTooLong) {
		t.Fatalf("recv = %v, want %v", err, errLineTooLong)
	}
	if len(l.line) > maxControlLine {
		t.Fatalf("buffered %d bytes, cap %d", len(l.line), maxControlLine)
	}
}
