package engine

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// Outbox is the batched-exchange helper for all-to-all communication
// patterns: a node queues an arbitrary multiset of (destination, word)
// messages and drains it across as many rounds as the bandwidth budget
// requires, sending at most the per-link message cap to each
// destination per round. This is the balanced (Lenzen-style) pacing
// that lets higher layers — the sparse matrix products in
// internal/matmul foremost — express "send this whole row to these
// nodes" without ever tripping a *BandwidthError.
//
// Words are queued two ways: Push copies individual words into
// per-destination buffers, and PushShared enqueues a borrowed read-only
// slice by reference — the broadcast case (the same row streamed to
// many destinations) then costs O(1) memory per destination instead of
// one copy each. For a given destination, copied words are delivered
// in Push order, then shared segments in PushShared order.
//
// An Outbox belongs to exactly one node and must only be touched from
// that node's Round handler (the same single-goroutine-per-round
// discipline the engine already imposes on node state).
type Outbox struct {
	n int
	// queues holds one queue per destination with unsent words,
	// sorted by destination. Drained queues are parked past len (in
	// the capacity) and recycled, buffers and all, so steady-state
	// Push/Flush does not allocate. Memory is proportional to the
	// destinations in use, not to n.
	queues []dstQueue
	total  int
}

// dstQueue is the unsent words for one destination: copied words
// first, then borrowed shared segments. A destination fed only by
// PushShared of one segment, the broadcast case, needs nothing beyond
// these 40 bytes.
type dstQueue struct {
	dst core.NodeID
	// seg is the unsent rest of the front shared segment, nil when no
	// segment is queued. Callers must not mutate a segment until the
	// Outbox has drained it.
	seg []uint64
	// x holds copied words and further segments, allocated on first
	// need and kept when the queue is recycled.
	x *queueExtra
}

// queueExtra is the rarely needed part of a dstQueue.
type queueExtra struct {
	// head indexes the first unsent word of pending.
	head    int
	pending []uint64
	// more holds the shared segments queued after seg, FIFO.
	more [][]uint64
}

// NewOutbox returns an empty Outbox for a clique of n nodes.
func NewOutbox(n int) *Outbox { return &Outbox{n: n} }

// Grow reserves room for k more destinations, so that a caller who
// knows how many destinations it is about to feed (a responder with k
// requests) opens their queues without regrowing the queue list.
func (o *Outbox) Grow(k int) {
	if need := len(o.queues) + k; need > cap(o.queues) {
		grown := make([]dstQueue, len(o.queues), need)
		copy(grown, o.queues)
		o.queues = grown
	}
}

// queue returns dst's queue, opening one (in destination order) if dst
// has nothing queued. Pushing in ascending destination order, as the
// matmul responders do, always appends.
func (o *Outbox) queue(dst core.NodeID) *dstQueue {
	if dst < 0 || int(dst) >= o.n {
		panic(fmt.Sprintf("engine: Outbox destination %d out of range [0, %d)", dst, o.n))
	}
	last := len(o.queues)
	i := last
	if last > 0 && o.queues[last-1].dst >= dst {
		i = sort.Search(last, func(k int) bool { return o.queues[k].dst >= dst })
		if o.queues[i].dst == dst {
			return &o.queues[i]
		}
	}
	if last < cap(o.queues) {
		o.queues = o.queues[:last+1]
	} else {
		o.queues = append(o.queues, dstQueue{})
	}
	x := o.queues[last].x // a parked queue's buffers, or nil
	copy(o.queues[i+1:], o.queues[i:last])
	if x != nil {
		x.head, x.pending, x.more = 0, x.pending[:0], x.more[:0]
	}
	o.queues[i] = dstQueue{dst: dst, x: x}
	return &o.queues[i]
}

// extra returns q's queueExtra, allocating it on first use.
func (q *dstQueue) extra() *queueExtra {
	if q.x == nil {
		q.x = &queueExtra{}
	}
	return q.x
}

// Push queues one word for dst (copied). It panics on an out-of-range
// destination; self-sends are the caller's responsibility to avoid
// (the router rejects them at Flush time).
func (o *Outbox) Push(dst core.NodeID, word uint64) {
	x := o.queue(dst).extra()
	x.pending = append(x.pending, word)
	o.total++
}

// PushShared queues words for dst by reference, without copying — the
// right call when broadcasting one large slice (a matrix row) to many
// destinations. The slice must stay unmodified until the Outbox drains;
// it is read, never written. Shared segments for a destination are
// delivered after any copied words queued via Push.
func (o *Outbox) PushShared(dst core.NodeID, words []uint64) {
	if len(words) == 0 {
		return
	}
	q := o.queue(dst)
	if q.seg == nil {
		q.seg = words
	} else {
		x := q.extra()
		x.more = append(x.more, words)
	}
	o.total += len(words)
}

// Pending returns the number of queued, not-yet-sent words.
func (o *Outbox) Pending() int { return o.total }

// drained reports whether q has no unsent words.
func (q *dstQueue) drained() bool {
	return q.seg == nil && (q.x == nil || q.x.head == len(q.x.pending))
}

// drain sends up to budget words to q.dst — copied words first, then
// shared segments. It returns the number sent and the first send error.
func (q *dstQueue) drain(ctx *Ctx, budget int) (int, error) {
	sent := 0
	if x := q.x; x != nil && x.head < len(x.pending) {
		for x.head < len(x.pending) && sent < budget {
			if err := ctx.Send(q.dst, x.pending[x.head]); err != nil {
				return sent, err
			}
			x.head++
			sent++
		}
		if x.head == len(x.pending) {
			x.head, x.pending = 0, x.pending[:0]
		}
	}
	for q.seg != nil && sent < budget {
		if err := ctx.Send(q.dst, q.seg[0]); err != nil {
			return sent, err
		}
		sent++
		if q.seg = q.seg[1:]; len(q.seg) == 0 {
			// Pop the finished segment, releasing the reference.
			q.seg = nil
			if x := q.x; x != nil && len(x.more) > 0 {
				q.seg = x.more[0]
				x.more[0] = nil
				x.more = x.more[1:]
			}
		}
	}
	return sent, nil
}

// Flush sends up to the per-link message cap to every destination with
// queued words, in one engine round. Call it once per Round handler
// invocation until Pending reaches zero. Because Flush never exceeds
// the cap, it cannot provoke a *BandwidthError of its own — but it can
// surface one if the node already spent link budget this round outside
// the Outbox. On error the Outbox bookkeeping stays consistent: words
// accepted by the router are dequeued, the rest remain pending.
func (o *Outbox) Flush(ctx *Ctx) error {
	if o.total == 0 {
		return nil
	}
	capMsgs := ctx.LinkMsgCap()
	qs := o.queues
	kept := 0
	for i := range qs {
		sent, err := qs[i].drain(ctx, capMsgs)
		o.total -= sent
		if err != nil {
			// Keep this queue and the untouched tail, in order.
			for j := i; j < len(qs); j++ {
				qs[kept], qs[j] = qs[j], qs[kept]
				kept++
			}
			o.queues = qs[:kept]
			return err
		}
		if !qs[i].drained() {
			if kept != i {
				// Swapping parks the drained queue at i for
				// recycling.
				qs[kept], qs[i] = qs[i], qs[kept]
			}
			kept++
		}
	}
	o.queues = qs[:kept]
	return nil
}
