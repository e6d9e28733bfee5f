// The replay digest summarizes every round's delivered traffic in one
// 64-bit word, chained across the rounds of a run (Options.
// RecordDigests). Two runs are bit-identical exactly when their chains
// match, on any transport and at any worker count.
//
// Definition (version 2, carried by snapshot format version 2):
//
//   - mix(h, v) folds a word into a hash: h ^= v, then multiply by an
//     odd constant, xor-shift right by 32, multiply by a second odd
//     constant, xor-shift right by 32. Every step is a bijection of h,
//     and every bit of v reaches every bit of the result.
//   - The i-th message of an inbox (i from 1, in delivery order) hashes
//     to mix(i*posMul, payload + src*srcMul), both multipliers odd.
//   - Destination d's inbox hash is mix(mix(mix(seed, d), len(inbox)),
//     sum), where sum adds its messages' hashes mod 2^64. The terms do
//     not depend on each other, so the loop runs at the multiplier's
//     throughput rather than its latency; the position key keeps the
//     sum sensitive to order.
//   - A round's digest is the previous round's digest (seed for round
//     0) with the n inbox hashes folded by mix in destination-ID order.
//
// mix is a bijection in each argument, and a sum changes whenever one
// term does, so changing any single src or payload changes the round's
// digest with certainty, not merely with high probability. The worker
// pool hashes the inboxes in parallel, shard by shard, after the
// transport has delivered the round (so socket ranks hash the bank
// Binding.Deliver filled); only the n-word chain runs on the
// coordinator.
package engine

// digestSeed is the initial value of the per-run replay digest chain
// and of every inbox hash.
const digestSeed uint64 = 0x6a09e667f3bcc909

// Odd multipliers of the digest mixer (the splitmix64 finalizer's), of
// a message's source, and of its position.
const (
	digestMul1   uint64 = 0xbf58476d1ce4e5b9
	digestMul2   uint64 = 0x94d049bb133111eb
	digestSrcMul uint64 = 0x9e3779b97f4a7c15
	digestPosMul uint64 = 0xd6e8feb86659fd93
)

// digestMix folds word v into the running hash h.
func digestMix(h, v uint64) uint64 {
	h = (h ^ v) * digestMul1
	h ^= h >> 32
	h *= digestMul2
	return h ^ h>>32
}

// inboxDigest hashes destination d's delivered inbox: d, the message
// count, and the position-keyed sum of its messages.
func inboxDigest(d int, box []Message) uint64 {
	var sum, key uint64
	for i := range box {
		key += digestPosMul
		sum += digestMix(key, box[i].Payload+uint64(box[i].Src)*digestSrcMul)
	}
	return digestMix(digestMix(digestMix(digestSeed, uint64(d)), uint64(len(box))), sum)
}

// digestShard hashes the delivered inboxes of worker w's shard into
// boxDigests. Shards and workers correspond one to one, and the shards
// cover all n destinations, including those a socket rank does not run.
func (e *Engine) digestShard(w int) {
	for d := e.rt.bounds[w]; d < e.rt.bounds[w+1]; d++ {
		e.boxDigests[d] = inboxDigest(int(d), e.rt.inbox[d])
	}
}

// chainRoundDigest hashes the round just delivered on the worker pool
// and returns the next link of the chain. Called at the barrier, once
// per round, only when RecordDigests is set.
func (e *Engine) chainRoundDigest() uint64 {
	e.runPhase(cmdDigest)
	h := e.lastDigest
	for _, b := range e.boxDigests {
		h = digestMix(h, b)
	}
	return h
}
