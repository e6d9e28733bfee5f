package algo

import (
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// newRelaxChain prepares the per-source relaxation stage shared by the
// exact and approximate k-source pipelines: `products` delta products
// B_{t+1} = S ⊗ B_t over a fixed matrix S (see matmul.Chain), starting
// from the indicator columns of the given sources in S's semiring: One
// at the source (0 over (min,+), InfWidth over (max,min)), Zero
// elsewhere. KSourceKernel instantiates it with S = A^h and
// ceil((n-1)/h) products for exactness; the approximate kernels with
// S = the hopset-augmented adjacency and ceil(β) products. g is wired
// into every pass so harvests assemble the full product across
// transport ranks.
func newRelaxChain(s *matmul.Matrix, sources []core.NodeID, products int, g engine.Gatherer) (*matmul.Chain, error) {
	b := matmul.NewDense(s.N, len(sources), s.Sr)
	for j, src := range sources {
		b.Row(src)[j] = s.Sr.One
	}
	c, err := matmul.NewChain(s, b, products)
	if err != nil {
		return nil, err
	}
	c.SetGatherer(g)
	return c, nil
}

// valueRows transposes the final n x k columns into per-source rows of
// raw semiring values, no sentinel translation — the harvest for
// pipelines whose semiring has a directly meaningful Zero (the
// (max,min) width 0 means "unreachable" on its own).
func valueRows(d *matmul.Dense) [][]int64 {
	rows := make([][]int64, d.K)
	for j := range rows {
		rows[j] = make([]int64, d.N)
	}
	for v := 0; v < d.N; v++ {
		for j, x := range d.Row(core.NodeID(v)) {
			rows[j][v] = x
		}
	}
	return rows
}

// distRows transposes the final n x k distance columns into per-source
// rows with the Unreached sentinel.
func distRows(d *matmul.Dense) [][]int64 {
	dist := valueRows(d)
	for _, row := range dist {
		for v, x := range row {
			if x >= core.InfWeight {
				row[v] = Unreached
			}
		}
	}
	return dist
}
