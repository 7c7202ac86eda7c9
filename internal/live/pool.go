package live

import (
	"sync"
	"sync/atomic"
)

// This file is the engine's object-pooling layer: every batch slice that
// crosses an executor boundary on the hot path — delivery batches
// ([]liveMsg), acker control batches ([]ctlMsg), completion-event batches
// ([]ackEvent), codec encode buffers ([]byte) and the slabs wire frames
// are ingested into ([]byte) — is drawn from a sync.Pool and returned
// after its single consumer is done with it, so steady-state emission
// allocates nothing per tuple.
//
// Ownership rules (see DESIGN.md "Pooling lifetime rules"):
//
//   - The sender allocates a batch from the pool and owns it until the
//     hand-off point (channel send) succeeds.
//   - A successful channel send transfers ownership to the single receiver
//     goroutine, which returns the batch after folding/processing it.
//   - Tuples for a target in another process never enter a pool on the
//     sending side: they are encoded into frame buffers the sending
//     executor owns and reuses (RemoteSink.Send only borrows them). A
//     batch stranded by a migration is encoded by encodeDataFrame, which
//     copies everything out, and returned right after.
//   - Batches dropped at dead executors are returned by the dropper.
//   - put clears the used prefix so pooled memory never pins tuple
//     payloads; oversized batches are left to the GC to bound pool growth.
//
// Encode buffers follow the same life cycle one level down: allocated by
// the sender in appendDelivery, released by the receiving bolt right after
// decodeValues copied the payload out (decode copies strings and byte
// runs, so the buffer is dead the moment it returns).
//
// A slab is the receiving side's one copy of a wire frame: Ingest (which
// only borrows its argument) allocates it, every enc of the decoded batch
// aliases it, and it travels with the batch as inBatch.slab. Whoever
// returns the batch returns the slab with it (releaseInput): the bolt
// after the batch's flush, the dying bolt for an abandoned tail, the
// dead-executor drainer, the stranded-queue pump after re-encoding, and
// Ingest itself for a frame it could not enqueue.

const (
	// poolMinCap is the capacity of a freshly allocated pooled batch.
	poolMinCap = 16
	// poolMaxCap bounds what put accepts back; anything a fan-out grew
	// beyond it is left to the GC so one huge batch cannot pin memory.
	poolMaxCap = 4096
	// encBufCap is the initial capacity of a pooled encode buffer.
	encBufCap = 128
)

// batchPool is a typed sync.Pool of reusable slices with hit/miss
// telemetry. The zero value is ready to use.
//
// sync.Pool stores interface values, and a slice header does not fit in
// one: each pooled slice rides in a *[]T holder. get hands the emptied
// holder to a second pool and put picks it up again, so a steady-state
// get/put pair allocates nothing (boxing a fresh holder per put cost 24 B
// per recycled batch and per recycled encode buffer).
type batchPool[T any] struct {
	pool    sync.Pool // *[]T, each holding a recycled slice
	holders sync.Pool // *[]T, emptied by get, awaiting the next put
	newCap  int       // capacity of a freshly allocated slice (0 = poolMinCap)
	maxCap  int       // largest capacity put accepts back (0 = poolMaxCap)
	hits    atomic.Int64
	misses  atomic.Int64
}

// get returns an empty slice with whatever capacity the pool had on hand.
func (p *batchPool[T]) get() []T {
	if v := p.pool.Get(); v != nil {
		p.hits.Add(1)
		h := v.(*[]T)
		s := (*h)[:0]
		*h = nil
		p.holders.Put(h)
		return s
	}
	p.misses.Add(1)
	c := p.newCap
	if c <= 0 {
		c = poolMinCap
	}
	return make([]T, 0, c)
}

// put recycles a slice after its single consumer finished with it. The
// used prefix is cleared so recycled backing arrays never keep dead tuple
// payloads (or their encode buffers) reachable.
func (p *batchPool[T]) put(s []T) {
	maxCap := p.maxCap
	if maxCap <= 0 {
		maxCap = poolMaxCap
	}
	if cap(s) == 0 || cap(s) > maxCap {
		return
	}
	clear(s)
	h, _ := p.holders.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.pool.Put(h)
}

// stats returns the pool's lifetime hit/miss counters.
func (p *batchPool[T]) stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}
