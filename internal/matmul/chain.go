package matmul

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// Chain iterates a fixed-matrix product chain B_{t+1} = S ⊗ B_t, one
// engine pass per product, as semi-naive (delta) products:
//
//   - each responder streams only the entries of its row of B_t that
//     changed in the previous product (the first product streams every
//     non-Zero entry);
//   - each node's accumulator starts from its own row of B_t instead
//     of Zero.
//
// The products stay bit-identical to full ones (MulDenseRef) because S
// is reflexive (every diagonal entry is One) and Add is idempotent and
// distributes over Mul. B_t therefore only improves: the term
// Mul(S[v][v], B_t[v]) = B_t[v] seeds the accumulator, and every term
// Mul(S[v][k], B_t[k][j]) whose B_t[k][j] did not change was already
// folded into B_t[v][j] by the previous product. Once the columns stop
// changing, a pass costs only its request round plus one quiet round.
//
// The hopset's hub-distance products and the k-source relaxation stage
// both run on a Chain. It owns the current and previous columns, the
// in-flight pass, the harvest (with the transport all-gather), the
// round hint, and the checkpoint encoding (WriteChain/ReadChain).
// Harvest, SetGatherer and MaxRoundsHint accept a nil *Chain, so
// kernels can forward to a chain they have not built yet.
type Chain struct {
	s         *Matrix
	cur, prev *Dense // prev is nil until the first product is harvested
	pass      *Pass
	remaining int
	gather    engine.Gatherer
}

// NewChain prepares `products` delta products of s, starting from b0.
// It rejects mismatched operands, a negative product count, and an s
// with a diagonal entry other than One.
func NewChain(s *Matrix, b0 *Dense, products int) (*Chain, error) {
	if err := checkChain(s, b0, nil, products); err != nil {
		return nil, err
	}
	return &Chain{s: s, cur: b0, remaining: products}, nil
}

// checkChain validates the state a Chain is built or restored from.
func checkChain(s *Matrix, cur, prev *Dense, remaining int) error {
	if s == nil || cur == nil {
		return fmt.Errorf("matmul: chain needs a matrix and start columns")
	}
	if err := checkPair(s.N, cur.N, s.Sr, cur.Sr); err != nil {
		return err
	}
	if prev != nil && (prev.N != cur.N || prev.K != cur.K || prev.Sr.Name != cur.Sr.Name) {
		return fmt.Errorf("matmul: chain previous columns %d x %d %q do not match current %d x %d %q",
			prev.N, prev.K, prev.Sr.Name, cur.N, cur.K, cur.Sr.Name)
	}
	if remaining < 0 {
		return fmt.Errorf("matmul: chain product count %d must be >= 0", remaining)
	}
	for v := 0; v < s.N; v++ {
		if d := s.At(core.NodeID(v), core.NodeID(v)); d != s.Sr.One {
			return fmt.Errorf("matmul: chain matrix diagonal (%d, %d) is %d, want the semiring One %d", v, v, d, s.Sr.One)
		}
	}
	return nil
}

// SetGatherer wires the transport's all-gather into every pass the
// chain builds (see Pass.SetGatherer).
func (c *Chain) SetGatherer(g engine.Gatherer) {
	if c != nil {
		c.gather = g
	}
}

// Harvest folds the completed in-flight product (if any) into the
// current columns. It gathers the product across transport ranks
// before the previous columns are kept for the next delta. Idempotent,
// so checkpointing can force it at a pass boundary.
func (c *Chain) Harvest() error {
	if c == nil || c.pass == nil {
		return nil
	}
	if err := c.pass.Gather(); err != nil {
		return err
	}
	c.prev, c.cur = c.cur, c.pass.Dense()
	c.pass = nil
	c.remaining--
	return nil
}

// Next harvests the pass returned by the previous call (if any) and
// returns the next product's node set, or nil once every product has
// run.
func (c *Chain) Next() ([]engine.Node, error) {
	if err := c.Harvest(); err != nil {
		return nil, err
	}
	if c.remaining <= 0 {
		return nil, nil
	}
	wf := newWireFormat(c.cur.K)
	if err := wf.checkPackable(c.cur.Vals, c.cur.Sr.Zero, "dense"); err != nil {
		return nil, err
	}
	p := newPass(c.s, packDenseRows(c.cur, c.prev, wf), c.cur.K, wf, false, c.cur.Vals)
	p.SetGatherer(c.gather)
	c.pass = p
	return p.Nodes(), nil
}

// MaxRoundsHint forwards the in-flight pass's round-bound hint (0 when
// no pass is in flight).
func (c *Chain) MaxRoundsHint() int {
	if c == nil || c.pass == nil {
		return 0
	}
	return c.pass.MaxRoundsHint()
}

// Matrix returns the fixed left operand S.
func (c *Chain) Matrix() *Matrix { return c.s }

// Cur returns the current columns B_t: the final result once Next has
// returned nil. It aliases the chain's storage.
func (c *Chain) Cur() *Dense { return c.cur }

// WriteChain encodes c (nil allowed) to the ckptio writer: S, the
// current and previous columns, and the remaining product count. The
// caller must have harvested any in-flight pass.
func WriteChain(w *ckptio.Writer, c *Chain) {
	if c == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	WriteMatrix(w, c.s)
	WriteDense(w, c.cur)
	WriteDense(w, c.prev)
	w.I64(int64(c.remaining))
}

// ReadChain decodes a chain written by WriteChain (nil when absent),
// applying NewChain's validation to the restored state.
func ReadChain(r *ckptio.Reader) (*Chain, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	c := &Chain{}
	var err error
	if c.s, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if c.cur, err = ReadDense(r); err != nil {
		return nil, err
	}
	if c.prev, err = ReadDense(r); err != nil {
		return nil, err
	}
	c.remaining = int(r.I64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkChain(c.s, c.cur, c.prev, c.remaining); err != nil {
		return nil, fmt.Errorf("matmul: corrupt serialized chain: %w", err)
	}
	return c, nil
}
