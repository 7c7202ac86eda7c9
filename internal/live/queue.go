package live

// This file is the bound on a bolt's input queue. The queue carries
// delivery batches, whose size ranges from one tuple to several hundred
// (an emit cycle's transfers to one target, a spout's adaptive
// accumulation, a whole wire frame), so a bound in batches bounds
// nothing a latency depends on. The bound is in tuples instead: every
// bolt keeps one count, queued, of the tuples charged to its queue.
//
//   - A sender charges a batch (admit) before its channel send, at the two
//     enqueue sites: deliver for batches built in this process, Ingest for
//     wire frames. It is admitted while the count is below queueBound,
//     whatever its size, so the count overshoots the bound by less than
//     one batch and a batch larger than the bound still gets through.
//   - Whoever takes the batch off the channel credits it, exactly once:
//     the bolt, the dead-executor drainer, the stranded-batch pump, or
//     Stop. A sender that gives up waiting (stop, or its own incarnation
//     killed) has charged nothing; one that was admitted always sends.
//   - A sender that finds the count at the bound waits on room, a one-slot
//     wake channel: the credit that takes the count below the bound puts a
//     token there, and a woken sender that is admitted with room to spare
//     passes the token on, so a crowd of blocked senders drains one after
//     another and no wake-up is lost. No one polls.
//
// Each admitted batch holds at least one tuple and found fewer than
// queueBound charged, so no more than queueBound batches are ever charged
// at once, and a channel of that many slots never blocks a send.

// queueBound is how many tuples a bolt's input queue admits. A tuple
// waits behind at most this many others, so at a bolt's service rate µ
// its queueing delay is bounded by queueBound/µ (Little's law). The value
// comes from a sweep of live-sat and dist-wire (DESIGN.md §6, "Bounded
// queues"): below it throughput starts to pay for the shorter wait, above
// it latency grows with no throughput to show for it.
const queueBound = 512

// ctlQueueCap is the capacity, in batches, of an acker's control-message
// channel.
const ctlQueueCap = 1024

// admit charges n (≥ 1) tuples to le's queue, blocking while the count is
// at the bound. It reports false, with nothing charged, when the engine
// stops or die (nil for none) is closed first.
func (le *liveExec) admit(n int64, die <-chan struct{}) bool {
	woken := false
	for {
		c := le.queued.Load()
		if c < queueBound {
			if !le.queued.CompareAndSwap(c, c+n) {
				continue
			}
			if woken && c+n < queueBound {
				le.wakeSender()
			}
			return true
		}
		select {
		case <-le.room:
			woken = true
		case <-le.eng.stopCh:
			return false
		case <-die:
			return false
		}
	}
}

// credit returns n tuples to le's queue: a batch left it (or a charge was
// given back). The credit that takes the count below the bound wakes a
// waiting sender.
func (le *liveExec) credit(n int) {
	if c := le.queued.Add(-int64(n)); c < queueBound && c+int64(n) >= queueBound {
		le.wakeSender()
	}
}

// wakeSender leaves a token in room, unless one is already waiting there.
func (le *liveExec) wakeSender() {
	select {
	case le.room <- struct{}{}:
	default:
	}
}

// emptyQueue takes everything off a queue that no goroutine consumes any
// more (Stop): the tuples leave the count and eng.pending, and the batches
// return to the pools. A nil queue (spouts, ackers) is empty.
func (le *liveExec) emptyQueue() {
	for {
		select {
		case b := <-le.in:
			le.credit(len(b.msgs))
			le.eng.pending.Add(-int64(len(b.msgs)))
			le.eng.releaseInput(b, 0)
		default:
			return
		}
	}
}
