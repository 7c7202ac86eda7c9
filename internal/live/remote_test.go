package live

import (
	"tstorm/internal/topology"
)

// decodeFrame decodes one frame the way Ingest does, against an engine
// that knows no names and whose pools are empty: the codec tests and fuzz
// targets drive the production decoder through it.
func decodeFrame(buf []byte) (*wireFrame, error) {
	f := &wireFrame{}
	if err := new(Engine).decodeFrame(f, nil, buf); err != nil {
		return nil, err
	}
	return f, nil
}

func encodeAckFrame(to topology.ExecutorID, evs []ackEvent) []byte {
	return appendAckFrame(nil, to, evs)
}
