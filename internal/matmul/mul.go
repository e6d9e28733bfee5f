package matmul

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// Options configures a distributed product.
type Options struct {
	// Engine configures the underlying round engine (workers, budget,
	// MaxRounds). The zero value selects the engine defaults, including
	// the canonical one-word-per-link budget.
	Engine engine.Options
	// Unpaced disables the Outbox pacing of response streams: each
	// responder pushes its entire row to every requester within a
	// single round. Any row larger than the per-link message cap then
	// exceeds the bandwidth budget and the product fails with a
	// *engine.BandwidthError. This mode exists to demonstrate (and
	// regression-test) why the balanced multi-round schedule is
	// necessary; real callers leave it off.
	Unpaced bool
}

// The wire format packs one matrix entry (column index, value) into a
// single Theta(log n)-bit message word: the column in the top
// Log2Ceil(cols) bits, the value in the remaining low bits. wireFormat
// captures the split for one product.
type wireFormat struct {
	valBits uint
	valMask uint64
	maxVal  int64
}

func newWireFormat(cols int) wireFormat {
	idxBits := uint(core.Log2Ceil(cols))
	if idxBits == 0 {
		idxBits = 1 // keep valBits < 64 so shifts stay defined
	}
	valBits := 64 - idxBits
	wf := wireFormat{valBits: valBits, valMask: 1<<valBits - 1}
	wf.maxVal = int64(wf.valMask)
	return wf
}

func (wf wireFormat) pack(j int, val int64) uint64 {
	return uint64(j)<<wf.valBits | uint64(val)
}

func (wf wireFormat) unpack(w uint64) (j int, val int64) {
	return int(w >> wf.valBits), int64(w & wf.valMask)
}

// checkPackable verifies that every value in vals fits the wire
// format's value field (semiring Zero values are exempt because they
// are never transmitted).
func (wf wireFormat) checkPackable(vals []int64, zero int64, what string) error {
	for _, v := range vals {
		if v == zero {
			continue
		}
		if v < 0 || v > wf.maxVal {
			return fmt.Errorf(
				"matmul: %s value %d does not fit the %d-bit wire value field [0, %d]",
				what, v, wf.valBits, wf.maxVal)
		}
	}
	return nil
}

// mulNode executes one node's share of a distributed product C = A ⊗ B.
// Node v owns row v of A, row v of B (pre-packed into wire words), and
// accumulates row v of C. In the delta products of a Chain, the packed
// row holds only the entries of B[v] that changed in the previous
// product, and the accumulator starts from B[v] instead of Zero (see
// Chain for why the product is unchanged). The protocol is globally
// phased:
//
//	round 0:    v sends one request word to every k in supp(A[v]),
//	            k != v, and folds in the local k = v contribution.
//	round 1:    inboxes hold only requests; v enqueues its packed B-row
//	            for each requester on its Outbox and starts flushing.
//	rounds >=2: inboxes hold only data words; v accumulates
//	            C[v][j] = Add(C[v][j], Mul(A[v][k], B[k][j])) for each
//	            word received from k, and keeps flushing its Outbox.
//
// The engine's quiescence detection ends the run once every Outbox has
// drained: the round after the last data word is delivered, no node
// sends anything.
type mulNode struct {
	sr     core.Semiring
	wf     wireFormat
	aCols  []core.NodeID
	aVals  []int64
	packed []uint64 // this node's row of B, in wire format
	acc    []int64  // this node's row of C, dense
	ob     *engine.Outbox
	unpace bool
}

// lookupA returns A[v][k] for this node's row, which exists whenever a
// data word from k arrives (we only requested rows we can use).
func (nd *mulNode) lookupA(k core.NodeID) (int64, bool) {
	i := sort.Search(len(nd.aCols), func(i int) bool { return nd.aCols[i] >= k })
	if i < len(nd.aCols) && nd.aCols[i] == k {
		return nd.aVals[i], true
	}
	return nd.sr.Zero, false
}

func (nd *mulNode) accumulate(aik int64, words []uint64) {
	for _, w := range words {
		j, val := nd.wf.unpack(w)
		nd.acc[j] = nd.sr.Add(nd.acc[j], nd.sr.Mul(aik, val))
	}
}

func (nd *mulNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	switch r {
	case 0:
		if avv, ok := nd.lookupA(ctx.ID()); ok {
			nd.accumulate(avv, nd.packed)
		}
		for _, k := range nd.aCols {
			if k == ctx.ID() {
				continue
			}
			if err := ctx.Send(k, 0); err != nil {
				return err
			}
		}
		return nil
	case 1:
		if nd.ob != nil {
			nd.ob.Grow(len(inbox))
		}
		for _, m := range inbox {
			if nd.unpace {
				for _, w := range nd.packed {
					if err := ctx.Send(m.Src, w); err != nil {
						return err
					}
				}
			} else {
				// By reference: every requester streams from the same
				// packed row, O(1) bookkeeping per requester instead
				// of one copy each.
				nd.ob.PushShared(m.Src, nd.packed)
			}
		}
		if nd.ob != nil {
			return nd.ob.Flush(ctx)
		}
		return nil
	default:
		// The inbox is ordered by ascending src (see engine.Node), and
		// aCols is sorted, so one forward walk of aCols finds every
		// sender's A[v][src]. At the default cap each sender
		// contributes one word per round; at wider caps its words
		// arrive in a contiguous run and the walk stays put.
		i := 0
		for _, m := range inbox {
			for i < len(nd.aCols) && nd.aCols[i] < m.Src {
				i++
			}
			if i == len(nd.aCols) || nd.aCols[i] != m.Src {
				return fmt.Errorf("matmul: node %d got unsolicited data from %d", ctx.ID(), m.Src)
			}
			aik := nd.aVals[i]
			j, val := nd.wf.unpack(m.Payload)
			nd.acc[j] = nd.sr.Add(nd.acc[j], nd.sr.Mul(aik, val))
		}
		if nd.ob != nil {
			return nd.ob.Flush(ctx)
		}
		return nil
	}
}

// Pass is one validated, packed distributed product C = A ⊗ B prepared
// as a single engine pass: n mulNodes, node v holding row v of both
// operands and accumulating row v of C. Kernels hand a Pass's Nodes to
// a clique session and harvest the result with Sparse or Dense after
// the pass quiesces — the unit that pipeline kernels (repeated
// squaring, hopset powering, k-source relaxation) chain on one warm
// session.
type Pass struct {
	n, cols int
	sr      core.Semiring
	maxRow  int
	nodes   []engine.Node
	accs    [][]int64
	flat    []int64

	// gather synchronizes the accumulator slab across transport ranks
	// at harvest time (nil for purely local runs); gathered makes
	// Gather idempotent across the repeated harvest calls the pipeline
	// kernels make.
	gather   engine.Gatherer
	gathered bool
}

// SetGatherer wires the transport's all-gather into the pass's
// harvest. The clique session injects its transport here (via the
// kernels' TransportAware hooks) before the pass runs; single-rank
// transports make Gather a no-op.
func (p *Pass) SetGatherer(g engine.Gatherer) { p.gather = g }

// Gather synchronizes the accumulated result slab across all ranks of
// the session's transport — each rank contributes the rows of the
// nodes it executed. It must run after the pass's engine run quiesced
// and before Sparse or Dense; calling it again is a no-op.
func (p *Pass) Gather() error {
	if p.gathered {
		return nil
	}
	if p.gather != nil && len(p.flat) > 0 {
		if err := p.gather.AllGatherRows(p.flat, p.cols); err != nil {
			return err
		}
	}
	p.gathered = true
	return nil
}

// NewPass validates and packs the sparse product A ⊗ B. unpaced selects
// the budget-violating single-round response mode used only to
// regression-test the pacing (see Options.Unpaced).
func NewPass(a, b *Matrix, unpaced bool) (*Pass, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	wf := newWireFormat(a.N)
	if err := wf.checkPackable(b.Vals, b.Sr.Zero, "matrix"); err != nil {
		return nil, err
	}
	return newPass(a, packRows(b, wf), a.N, wf, unpaced, nil), nil
}

// NewDensePass validates and packs the sparse-dense product A ⊗ B with
// B (and C) n x k dense. Zero entries of B are not transmitted.
func NewDensePass(a *Matrix, b *Dense, unpaced bool) (*Pass, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	wf := newWireFormat(b.K)
	if err := wf.checkPackable(b.Vals, b.Sr.Zero, "dense"); err != nil {
		return nil, err
	}
	return newPass(a, packDenseRows(b, nil, wf), b.K, wf, unpaced, nil), nil
}

// newPass wires n mulNodes (node v holding packed B-row packed[v] and a
// cols-wide accumulator) over a flat n*cols result slab. The slab
// starts as a copy of init when it is non-nil (the delta products of a
// Chain), and as all-Zero otherwise.
func newPass(a *Matrix, packed [][]uint64, cols int, wf wireFormat, unpaced bool, init []int64) *Pass {
	n := a.N
	p := &Pass{
		n:    n,
		cols: cols,
		sr:   a.Sr,
		accs: make([][]int64, n),
		flat: make([]int64, n*cols),
	}
	for _, row := range packed {
		if len(row) > p.maxRow {
			p.maxRow = len(row)
		}
	}
	switch {
	case init != nil:
		copy(p.flat, init)
	case a.Sr.Zero != 0:
		for i := range p.flat {
			p.flat[i] = a.Sr.Zero
		}
	}
	p.nodes = make([]engine.Node, n)
	state := make([]mulNode, n)
	for v := 0; v < n; v++ {
		aCols, aVals := a.Row(core.NodeID(v))
		p.accs[v] = p.flat[v*cols : (v+1)*cols]
		state[v] = mulNode{
			sr:     a.Sr,
			wf:     wf,
			aCols:  aCols,
			aVals:  aVals,
			packed: packed[v],
			acc:    p.accs[v],
			unpace: unpaced,
		}
		if !unpaced {
			state[v].ob = engine.NewOutbox(n)
		}
		p.nodes[v] = &state[v]
	}
	return p
}

// Nodes returns the pass's node set for one engine run.
func (p *Pass) Nodes() []engine.Node { return p.nodes }

// MaxRoundsHint sizes the round bound from the widest packed row: the
// paced drain of that row takes ~len rounds at one word per link per
// round, which for dense operands (K columns) can exceed the engine's
// n-scaled 4n+64 default. Sizing from the actual data means legal
// products never hit engine.ErrMaxRounds.
func (p *Pass) MaxRoundsHint() int { return 4*p.n + 64 + p.maxRow }

// Sparse assembles the accumulated result as a sparse Matrix. Call it
// only after the pass's engine run has quiesced.
func (p *Pass) Sparse() *Matrix {
	bld := newBuilder(p.n, p.sr)
	for _, acc := range p.accs {
		bld.appendRow(acc)
	}
	return bld.m
}

// Dense returns the accumulated result as an n x cols Dense — the
// accumulator slab already is the row-major result, so this is
// copy-free. Call it only after the pass's engine run has quiesced.
func (p *Pass) Dense() *Dense {
	return &Dense{N: p.n, K: p.cols, Sr: p.sr, Vals: p.flat}
}

// packRows converts each sparse row of b into wire words.
func packRows(b *Matrix, wf wireFormat) [][]uint64 {
	packed := make([][]uint64, b.N)
	for v := 0; v < b.N; v++ {
		cols, vals := b.Row(core.NodeID(v))
		row := make([]uint64, len(cols))
		for i, j := range cols {
			row[i] = wf.pack(int(j), vals[i])
		}
		packed[v] = row
	}
	return packed
}

// packDenseRows converts each row of b into wire words, skipping Zero
// entries and, when prev is non-nil, every entry equal to prev's: the
// changed entries a delta product streams. All rows share one backing
// slab.
func packDenseRows(b, prev *Dense, wf wireFormat) [][]uint64 {
	packed := make([][]uint64, b.N)
	var words []uint64
	ends := make([]int, b.N)
	for v := 0; v < b.N; v++ {
		row := b.Row(core.NodeID(v))
		var old []int64
		if prev != nil {
			old = prev.Row(core.NodeID(v))
		}
		for j, val := range row {
			if val == b.Sr.Zero || (old != nil && old[j] == val) {
				continue
			}
			words = append(words, wf.pack(j, val))
		}
		ends[v] = len(words)
	}
	start := 0
	for v, end := range ends {
		packed[v] = words[start:end:end]
		start = end
	}
	return packed
}

// runKernel executes one matmul kernel on a throwaway graph-free
// session sized n — the bridge that keeps the free-function entry
// points as thin wrappers over the session API (see clique.OneShot for
// the stats contract).
func runKernel(n int, k clique.Kernel, eopts engine.Options) (*engine.Stats, error) {
	s, err := clique.NewSize(n, clique.WithEngineOptions(eopts))
	if err != nil {
		return nil, err
	}
	return clique.OneShot(s, k)
}

// Mul computes the sparse product C = A ⊗ B on the round engine: n
// clique nodes, node v holding row v of each operand, communicating
// only bounded words through the sharded router under the per-link
// budget. The returned stats are the engine's own accounting of the
// product — rounds executed and words routed. Values of B must fit the
// wire format's value field (64 - ceil(log2 n) bits); the product fails
// fast with a descriptive error otherwise. Mul is a thin wrapper over
// running a MulKernel on a single-use clique session.
func Mul(a, b *Matrix, opts Options) (*Matrix, *engine.Stats, error) {
	k := &MulKernel{a: a, b: b, unpaced: opts.Unpaced}
	stats, err := runKernel(a.N, k, opts.Engine)
	if err != nil {
		return nil, stats, err
	}
	return k.Product(), stats, nil
}

// MulDense computes the sparse-dense product C = A ⊗ B on the round
// engine, with B and C n x k dense (k is typically a small set of
// sources whose distance columns are being relaxed). Zero entries of B
// are not transmitted; values must fit 64 - ceil(log2 k) bits. MulDense
// is a thin wrapper over running a MulDenseKernel on a single-use
// clique session.
func MulDense(a *Matrix, b *Dense, opts Options) (*Dense, *engine.Stats, error) {
	k := &MulDenseKernel{a: a, b: b, unpaced: opts.Unpaced}
	stats, err := runKernel(a.N, k, opts.Engine)
	if err != nil {
		return nil, stats, err
	}
	return k.Product(), stats, nil
}
