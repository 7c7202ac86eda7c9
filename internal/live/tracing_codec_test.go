package live

import (
	"testing"
	"time"

	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// Forward-compatibility contract for the tuple-tracing frame extension
// (frameDataT): traced batches round-trip their span fields, plain batches
// stay byte-identical to the pre-extension format so tracing-off fleets
// never emit the new kind, and decoders reject frames with flag bits they
// do not understand instead of misparsing them.

func tracedBatch() []liveMsg {
	enc1, _ := encodeValues(tuple.Values{"hello", int(7)})
	enc2, _ := encodeValues(tuple.Values{"world"})
	return []liveMsg{
		{
			tup: tuple.Tuple{
				Root: 0x400, Edge: 0xfeed, Stream: "default",
				SrcComponent: "reader", SrcTask: 1, Size: 12,
			},
			enc: enc1, bornAt: time.Unix(0, 1_700_000_000_000_000_000),
			from: 3, parentSpan: 0x400, sentAt: 1_700_000_000_000_000_500,
		},
		{
			// Unsampled neighbor in the same batch: span fields zero.
			tup: tuple.Tuple{
				Root: 0x401, Edge: 0xbeef, Stream: "default",
				SrcComponent: "reader", SrcTask: 1, Size: 5,
			},
			enc: enc2, from: 3,
		},
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	to := topology.ExecutorID{Topology: "wc", Component: "split", Index: 2}
	msgs := tracedBatch()
	frame, skipped := encodeDataFrame(to, msgs)
	if skipped != 0 {
		t.Fatalf("skipped %d messages", skipped)
	}
	if frame[0] != frameDataT {
		t.Fatalf("traced batch encoded as kind %d, want frameDataT", frame[0])
	}
	if n := FrameTuples(frame); n != len(msgs) {
		t.Fatalf("FrameTuples = %d, want %d", n, len(msgs))
	}
	f, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.to != to {
		t.Fatalf("target %+v != %+v", f.to, to)
	}
	if len(f.data) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(f.data), len(msgs))
	}
	for i, m := range f.data {
		want := msgs[i]
		if m.tup.Root != want.tup.Root || m.tup.Edge != want.tup.Edge {
			t.Fatalf("msg %d identity %v/%v != %v/%v", i, m.tup.Root, m.tup.Edge, want.tup.Root, want.tup.Edge)
		}
		if m.parentSpan != want.parentSpan || m.sentAt != want.sentAt {
			t.Fatalf("msg %d span fields (%#x, %d) != (%#x, %d)",
				i, m.parentSpan, m.sentAt, want.parentSpan, want.sentAt)
		}
		if m.from != want.from {
			t.Fatalf("msg %d from %d != %d", i, m.from, want.from)
		}
	}
}

func TestPlainFrameFormatUnchanged(t *testing.T) {
	// A batch with no sampled tuple must keep the original frameData kind
	// byte and layout — an old decoder without the tracing extension only
	// ever sees frames it understands.
	to := topology.ExecutorID{Topology: "wc", Component: "split", Index: 0}
	msgs := tracedBatch()
	for i := range msgs {
		msgs[i].parentSpan, msgs[i].sentAt = 0, 0
	}
	frame, _ := encodeDataFrame(to, msgs)
	if frame[0] != frameData {
		t.Fatalf("plain batch encoded as kind %d, want frameData", frame[0])
	}
	if n := FrameTuples(frame); n != len(msgs) {
		t.Fatalf("FrameTuples = %d, want %d", n, len(msgs))
	}
	f, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, m := range f.data {
		if m.parentSpan != 0 || m.sentAt != 0 {
			t.Fatalf("msg %d grew span fields from a plain frame: (%#x, %d)", i, m.parentSpan, m.sentAt)
		}
	}
}

func TestTracedFrameUnknownFlagRejected(t *testing.T) {
	to := topology.ExecutorID{Topology: "wc", Component: "split", Index: 2}
	frame, _ := encodeDataFrame(to, tracedBatch())
	if frame[0] != frameDataT {
		t.Fatalf("traced batch encoded as kind %d, want frameDataT", frame[0])
	}
	// The flags byte sits right after the header; locate it by re-encoding
	// the header alone.
	flagsAt := len(appendFrameHeader(nil, frameDataT, to))
	if frame[flagsAt] != flagSpans {
		t.Fatalf("flags byte %#x at %d, want flagSpans", frame[flagsAt], flagsAt)
	}
	bad := append([]byte(nil), frame...)
	bad[flagsAt] |= 0x80 // a bit this decoder does not define
	if _, err := decodeFrame(bad); err == nil {
		t.Fatal("frame with unknown flag bit decoded cleanly; want rejection")
	}
	// Truncating the span fields must error, not misparse.
	if _, err := decodeFrame(frame[:len(frame)-9]); err == nil {
		t.Fatal("truncated traced frame decoded cleanly; want rejection")
	}
}
