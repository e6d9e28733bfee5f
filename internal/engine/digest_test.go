package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// refRoundDigest is the sequential definition of one round's digest:
// the previous chain head with every destination's inbox hash folded
// in destination-ID order.
func refRoundDigest(prev uint64, bank [][]Message) uint64 {
	h := prev
	for d, box := range bank {
		h = digestMix(h, inboxDigest(d, box))
	}
	return h
}

// randomBank returns an n-destination inbox bank with 0..4 random
// messages per destination.
func randomBank(rng *rand.Rand, n int) [][]Message {
	bank := make([][]Message, n)
	for d := range bank {
		for k := rng.Intn(5); k > 0; k-- {
			bank[d] = append(bank[d], Message{Src: core.NodeID(rng.Intn(n)), Payload: rng.Uint64()})
		}
	}
	return bank
}

func cloneBank(bank [][]Message) [][]Message {
	out := make([][]Message, len(bank))
	for d, box := range bank {
		out[d] = append([]Message(nil), box...)
	}
	return out
}

// TestDigestMixReachesEveryBit checks the mixer's diffusion: for every
// input bit and every output bit, flipping the input bit flips the
// output bit for some running hash.
func TestDigestMixReachesEveryBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for in := 0; in < 64; in++ {
		var reached uint64
		for k := 0; k < 64 && reached != ^uint64(0); k++ {
			h, v := rng.Uint64(), rng.Uint64()
			reached |= digestMix(h, v) ^ digestMix(h, v^1<<in)
		}
		if reached != ^uint64(0) {
			t.Errorf("input bit %d never reaches output bits %064b", in, ^reached)
		}
	}
}

// TestDigestDetectsSingleBitFlips flips bits 0, 31 and 63 of every
// payload, and bits 0 and 31 of every source (a NodeID has 32 bits),
// and requires the round digest to change each time.
func TestDigestDetectsSingleBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bank := randomBank(rng, 9)
	base := refRoundDigest(digestSeed, bank)
	flips := 0
	for d := range bank {
		for i := range bank[d] {
			for _, bit := range []uint{0, 31, 63} {
				mut := cloneBank(bank)
				mut[d][i].Payload ^= 1 << bit
				if refRoundDigest(digestSeed, mut) == base {
					t.Errorf("flipping payload bit %d of message %d to %d left the digest unchanged", bit, i, d)
				}
				if bit == 63 {
					continue
				}
				mut = cloneBank(bank)
				mut[d][i].Src ^= core.NodeID(uint32(1) << bit)
				if refRoundDigest(digestSeed, mut) == base {
					t.Errorf("flipping src bit %d of message %d to %d left the digest unchanged", bit, i, d)
				}
				flips += 2
			}
		}
	}
	if flips == 0 {
		t.Fatal("random bank holds no messages")
	}
}

// TestDigestDetectsReorderAndMove swaps every pair of distinct messages
// within an inbox, and moves every message to every other destination;
// each must change the round digest.
func TestDigestDetectsReorderAndMove(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bank := randomBank(rng, 7)
	base := refRoundDigest(digestSeed, bank)
	for d := range bank {
		for i := range bank[d] {
			for j := i + 1; j < len(bank[d]); j++ {
				if bank[d][i] == bank[d][j] {
					continue
				}
				mut := cloneBank(bank)
				mut[d][i], mut[d][j] = mut[d][j], mut[d][i]
				if refRoundDigest(digestSeed, mut) == base {
					t.Errorf("swapping messages %d and %d to %d left the digest unchanged", i, j, d)
				}
			}
			for to := range bank {
				if to == d {
					continue
				}
				mut := cloneBank(bank)
				m := mut[d][i]
				mut[d] = append(mut[d][:i], mut[d][i+1:]...)
				mut[to] = append(mut[to], m)
				if refRoundDigest(digestSeed, mut) == base {
					t.Errorf("moving message %d from %d to %d left the digest unchanged", i, d, to)
				}
			}
		}
	}
}

// TestDigestDefinitionPinned pins the version-2 digest of a fixed bank,
// so a change to the definition cannot pass unnoticed: snapshots carry
// digest chains, and their format version must change with it.
func TestDigestDefinitionPinned(t *testing.T) {
	bank := [][]Message{
		{{Src: 1, Payload: 7}, {Src: 2, Payload: 1 << 63}},
		nil,
		{{Src: 0, Payload: 42}},
	}
	const want uint64 = 0xa3a5fe6763bf5307
	if got := refRoundDigest(digestSeed, bank); got != want {
		t.Fatalf("digest of the fixed bank = %#x, want %#x", got, want)
	}
}

// TestDigestChainMatchesDefinitionAcrossWorkers runs one workload at 1,
// 2, 3 and 7 workers and checks that every round's digest equals the
// sequential definition over the bank the round delivered, and that
// the chains are identical at every worker count.
func TestDigestChainMatchesDefinitionAcrossWorkers(t *testing.T) {
	const n, rounds = 23, 9
	var want []uint64
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &runTraffic{n: n, rounds: rounds}
			}
			var e *Engine
			prev := digestSeed
			hook := func(rs RoundStats) {
				snap, err := e.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if ref := refRoundDigest(prev, snap.Inbox); rs.Digest != ref {
					t.Errorf("round %d digest %#x, sequential definition %#x", rs.Round, rs.Digest, ref)
				}
				prev = rs.Digest
			}
			var err error
			e, err = New(n, Options{
				Workers:       workers,
				RecordDigests: true,
				RoundHook:     hook,
				Budget:        runTrafficBudget,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if _, err := e.Run(context.Background(), nodes); err != nil {
				t.Fatal(err)
			}
			got := e.Digests()
			if len(got) != rounds+1 {
				t.Fatalf("%d digests, want %d", len(got), rounds+1)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("digest chain at %d workers differs from 1 worker", workers)
			}
		})
	}
}

// TestWorkerStatePadding pins the false-sharing layout: a worker's
// state is a whole number of 128-byte line pairs with less than one
// pair of padding, and the per-worker rows of out-slab headers and
// link stamps never share a cache line with another worker's.
func TestWorkerStatePadding(t *testing.T) {
	size := unsafe.Sizeof(worker{})
	if size%cacheLinePair != 0 || size-workerUsed >= cacheLinePair {
		t.Fatalf("worker is %d bytes (%d used), want a multiple of %d with less than %d of padding",
			size, workerUsed, cacheLinePair, cacheLinePair)
	}
	e, err := New(50, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	type span struct{ lo, hi uintptr }
	lines := func(s span) (uintptr, uintptr) { return s.lo / 64, (s.hi - 1) / 64 }
	var rows []span
	for w := range e.pool {
		c := &e.pool[w].ctx
		out := uintptr(unsafe.Pointer(&c.out[0]))
		links := uintptr(unsafe.Pointer(&c.links[0]))
		rows = append(rows,
			span{out, out + uintptr(len(c.out))*unsafe.Sizeof(c.out[0])},
			span{links, links + uintptr(len(c.links))*unsafe.Sizeof(c.links[0])})
	}
	for i := range rows {
		for j := range rows {
			if i/2 == j/2 {
				continue // same worker
			}
			ilo, ihi := lines(rows[i])
			jlo, jhi := lines(rows[j])
			if ilo <= jhi && jlo <= ihi {
				t.Errorf("worker %d and worker %d rows share a cache line", i/2, j/2)
			}
		}
	}
}
