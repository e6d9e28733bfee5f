// The sharded message router is the performance core of the simulator.
//
// Layout: the n destination mailboxes are partitioned into S contiguous
// shards. During a round, each of the W scheduler workers appends the
// messages its nodes send into W x S private out-buffers (no locks, no
// per-message allocation: the buffers are sync.Pool-backed slabs whose
// capacity is retained across rounds). At the round barrier each shard
// goroutine scatters the S-th column of that matrix into per-destination
// inboxes it exclusively owns, again lock-free. Inboxes are
// double-buffered: nodes read round r's inboxes while the scatter phase
// fills round r+1's, and the two banks are swapped at finishRound.
//
// Bandwidth accounting: the Congested Clique allows B = O(log n) bits
// per directed link per round. The router charges Budget.MsgBits per
// message and rejects a send that would exceed the link capacity with a
// *BandwidthError instead of silently dropping. A node sends only from
// its own handler, once per round, on one worker, so the counters live
// with the worker: each worker's Ctx holds one epoch-stamped counter
// per destination, and rebinding the Ctx to the next node advances its
// epoch, which resets every counter at once. That is O(workers * n)
// memory instead of one counter per ordered pair.
package engine

import (
	"fmt"
	"sync"
	"unsafe"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// Message is a delivered simulator message: one Theta(log n)-bit
// payload word plus its sender. The destination is implicit in which
// inbox the message sits in.
type Message struct {
	Src     core.NodeID
	Payload uint64
}

// outMsg is the in-flight representation inside the router's
// out-buffers, which still needs the explicit destination.
type outMsg struct {
	dst     core.NodeID
	src     core.NodeID
	payload uint64
}

// slabCap is the initial capacity of a pooled out-buffer slab. 1024
// messages x 16 bytes = 16 KiB, large enough that steady-state growth
// is rare and small enough that idle shards are cheap.
const slabCap = 1024

var slabPool = sync.Pool{
	New: func() any {
		s := make([]outMsg, 0, slabCap)
		return &s
	},
}

// BandwidthError reports a send that exceeded the per-link, per-round
// message budget.
type BandwidthError struct {
	Src, Dst core.NodeID
	Round    core.Round
	Cap      int
}

// Error formats the violated link, round, and cap.
func (e *BandwidthError) Error() string {
	return fmt.Sprintf("engine: bandwidth cap exceeded on link %d->%d in round %d (cap %d msgs/round)",
		e.Src, e.Dst, e.Round, e.Cap)
}

// router owns all message storage for one engine instance. It is a
// passive data structure: all parallelism (which worker appends where,
// which goroutine scatters which shard) is orchestrated by the engine,
// so every method here is allocation-free on the steady-state hot path.
type router struct {
	n       int
	shards  int
	budget  core.Budget
	linkCap int

	// bounds[s] is the first destination owned by shard s;
	// shard s owns dsts in [bounds[s], bounds[s+1]).
	bounds []int32

	// out[w][s] holds messages appended by worker w for shard s. The
	// rows are cut from one backing array with outRowGap spare headers
	// before each, so a worker appending to its row (which rewrites a
	// slab header on every send) never shares a cache line with
	// another worker's row. Worker w's Ctx holds a copy of row w.
	out [][][]outMsg

	// inbox is the bank nodes read this round; spare is the bank the
	// scatter phase fills for next round. Swapped by finishRound.
	inbox [][]Message
	spare [][]Message

	round core.Round
}

// cacheLinePair is the span of memory one worker's hot state is kept
// apart by: two 64-byte cache lines, because the adjacent-line
// prefetcher of current x86 cores fetches lines in 128-byte pairs.
const cacheLinePair = 128

// outRowGap is the number of spare slab headers before every worker's
// row of router.out: at least cacheLinePair bytes.
const outRowGap = (cacheLinePair + int(unsafe.Sizeof([]outMsg(nil))) - 1) / int(unsafe.Sizeof([]outMsg(nil)))

// linkStamp is one destination's link counter in a worker's Ctx: the
// number of messages sent to it under binding epoch.
type linkStamp struct {
	epoch uint32
	count uint16
}

// linkGap is the number of spare stamps on each side of a worker's
// stamp row, at least cacheLinePair bytes.
const linkGap = (cacheLinePair + int(unsafe.Sizeof(linkStamp{})) - 1) / int(unsafe.Sizeof(linkStamp{}))

func newRouter(n, workers, shards int, budget core.Budget) *router {
	if shards < 1 {
		shards = 1
	}
	if shards > n && n > 0 {
		shards = n
	}
	linkCap := budget.MsgsPerLink()
	if linkCap > 65535 {
		linkCap = 65535 // count is uint16; 64K msgs/link/round is far beyond any O(log n) budget
	}
	rt := &router{
		n:       n,
		shards:  shards,
		budget:  budget,
		linkCap: linkCap,
		bounds:  make([]int32, shards+1),
		out:     make([][][]outMsg, workers),
		inbox:   make([][]Message, n),
		spare:   make([][]Message, n),
	}
	for s := 0; s <= shards; s++ {
		rt.bounds[s] = int32((s*n + shards - 1) / shards)
	}
	rows := make([][]outMsg, workers*(outRowGap+shards)+outRowGap)
	for w := range rt.out {
		lo := outRowGap + w*(outRowGap+shards)
		rt.out[w] = rows[lo : lo+shards : lo+shards]
	}
	return rt
}

// newCtx returns worker w's unbound send handle: row w of the
// out-slabs and a fresh row of link stamps, padded on both sides so no
// other worker's stamps share its cache lines.
func (rt *router) newCtx(w int) Ctx {
	links := make([]linkStamp, rt.n+2*linkGap)
	return Ctx{
		rt:    rt,
		out:   rt.out[w],
		links: links[linkGap : linkGap+rt.n : linkGap+rt.n],
	}
}

// shardOf maps a destination to its owning shard, consistent with
// bounds: for dst in [bounds[s], bounds[s+1]), shardOf(dst) == s.
func (rt *router) shardOf(dst core.NodeID) int {
	return int(dst) * rt.shards / rt.n
}

// send appends one message from c's bound node to the out-slab of the
// destination's shard, enforcing the link budget. The engine runs each
// node's handler on exactly one worker, and each worker owns its Ctx,
// so the stamps and the out-slab row are data-race free without atomics.
func (rt *router) send(c *Ctx, dst core.NodeID, payload uint64) error {
	if dst < 0 || int(dst) >= rt.n || dst == c.src {
		return fmt.Errorf("engine: invalid destination %d for sender %d (n=%d)", dst, c.src, rt.n)
	}
	l := &c.links[dst]
	if l.epoch != c.epoch {
		l.epoch = c.epoch
		l.count = 0
	}
	if int(l.count) >= rt.linkCap {
		return &BandwidthError{Src: c.src, Dst: dst, Round: rt.round, Cap: rt.linkCap}
	}
	l.count++
	s := rt.shardOf(dst)
	buf := c.out[s]
	if buf == nil {
		buf = *slabPool.Get().(*[]outMsg)
	}
	c.out[s] = append(buf, outMsg{dst: dst, src: c.src, payload: payload})
	return nil
}

// scatterShard drains every worker's buffer for shard s into the spare
// inbox bank. Only one goroutine may run scatterShard(s) for a given s
// per round; distinct shards touch disjoint destination ranges, so all
// shards scatter in parallel without locks. Iterating workers in index
// order (and each worker having appended its nodes in ID order) makes
// inbox ordering fully deterministic regardless of scheduling.
func (rt *router) scatterShard(s int) {
	lo, hi := rt.bounds[s], rt.bounds[s+1]
	for d := lo; d < hi; d++ {
		rt.spare[d] = rt.spare[d][:0]
	}
	for w := range rt.out {
		buf := rt.out[w][s]
		for i := range buf {
			m := &buf[i]
			rt.spare[m.dst] = append(rt.spare[m.dst], Message{Src: m.src, Payload: m.payload})
		}
		if buf != nil {
			rt.out[w][s] = buf[:0]
		}
	}
}

// reset rewinds the router to a pristine round 0 for engine reuse:
// both inbox banks and all out-buffers are truncated (capacity kept,
// so reuse allocates nothing) and the round counter restarts; link
// counters need no reset, since every binding starts a fresh epoch. A
// run that ended in quiescence leaves nothing to clear, but a run cut
// short by a handler error or context cancellation can leave queued
// out-buffer messages and a filled spare bank behind.
func (rt *router) reset() {
	for d := 0; d < rt.n; d++ {
		rt.inbox[d] = rt.inbox[d][:0]
		rt.spare[d] = rt.spare[d][:0]
	}
	for w := range rt.out {
		for s := range rt.out[w] {
			if buf := rt.out[w][s]; buf != nil {
				rt.out[w][s] = buf[:0]
			}
		}
	}
	rt.round = 0
}

// finishRound swaps the inbox banks and advances the round counter.
// Must be called after every shard's scatterShard has completed.
func (rt *router) finishRound() {
	rt.inbox, rt.spare = rt.spare, rt.inbox
	rt.round++
}

// release returns all out-buffer slabs to the pool. The router must not
// be used afterwards.
func (rt *router) release() {
	for w := range rt.out {
		for s := range rt.out[w] {
			if buf := rt.out[w][s]; buf != nil {
				buf = buf[:0]
				slabPool.Put(&buf)
				rt.out[w][s] = nil
			}
		}
	}
}
