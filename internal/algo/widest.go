package algo

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// This file instantiates the package's two distance-product pipelines —
// repeated squaring and the two-stage k-source relaxation — over the
// (max,min) bottleneck semiring: widest paths. The width of a path is
// the minimum edge weight along it, and the widest-path value between
// u and v is the maximum width over all u-v paths. Matrix powers over
// core.MaxMin compute exactly the hop-limited version of that value, so
// the existing powerState/relaxState machinery carries over unchanged;
// only the adjacency constructor and the result conventions differ.
//
// Width conventions (shared by the kernels and WidestRef, so oracle
// comparisons are bit-identity): width[u][u] = core.InfWidth (the empty
// path has unbounded width), width[u][v] = 0 when v is unreachable from
// u (the semiring Zero), and the true bottleneck width otherwise.

// maxminAdjacency validates g and builds its reflexive (max,min)
// adjacency matrix. Edge widths must be in [1, InfWidth): zero is the
// semiring's absent-entry sentinel and InfWidth is reserved for the
// empty path.
func maxminAdjacency(g *graph.CSR) (*matmul.Matrix, error) {
	if !g.Weighted() {
		return nil, fmt.Errorf("algo: widest paths require a weighted graph")
	}
	for _, w := range g.Weights {
		if w < 1 || w >= core.InfWidth {
			return nil, fmt.Errorf("algo: widest paths require weights in [1, %d), got %d", core.InfWidth, w)
		}
	}
	return matmul.FromGraph(g, core.MaxMin(), true)
}

// widthMatrix converts a (max,min) matrix into dense rows of raw width
// values: absent entries become 0 (the semiring Zero, "no path").
func widthMatrix(m *matmul.Matrix) [][]int64 {
	out := make([][]int64, m.N)
	for v := 0; v < m.N; v++ {
		row := make([]int64, m.N)
		cols, vals := m.Row(core.NodeID(v))
		for i, j := range cols {
			row[j] = vals[i]
		}
		out[v] = row
	}
	return out
}

// WidestPathKernel computes all-pairs widest-path (maximum-bottleneck)
// values by (max,min) repeated squaring: W_1 = A (the reflexive
// bottleneck adjacency matrix), W_2h = W_h ⊗ W_h, one engine pass per
// squaring, stopping once the hop horizon reaches n-1 — the same
// square-until-stable skeleton as APSPKernel, instantiated over
// core.MaxMin. Unweighted session graphs are treated as unit-weighted
// (every width 1).
type WidestPathKernel struct {
	n       int
	span    int
	d       *matmul.Matrix
	pass    *matmul.Pass
	width   [][]int64
	started bool
	done    bool
	gather  engine.Gatherer
}

// SetGatherer injects the session transport's all-gather so every
// squaring's harvest assembles the full product on every rank (clique
// TransportAware hook).
func (k *WidestPathKernel) SetGatherer(g engine.Gatherer) { k.gather = g }

// NewWidestPathKernel returns an all-pairs widest-path kernel.
func NewWidestPathKernel() *WidestPathKernel { return &WidestPathKernel{} }

// Name identifies the kernel.
func (k *WidestPathKernel) Name() string { return "widest" }

// Nodes returns one squaring pass per call until the hop horizon covers
// n-1, then harvests the width matrix.
func (k *WidestPathKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if !k.started {
		if g == nil {
			return nil, fmt.Errorf("algo: %s kernel requires a graph-bound session (clique.New, not NewSize)", k.Name())
		}
		a, err := maxminAdjacency(g.WithUnitWeights())
		if err != nil {
			return nil, err
		}
		k.d, k.n, k.span, k.started = a, g.N, 1, true
	}
	if err := k.harvest(); err != nil {
		return nil, err
	}
	if k.span >= k.n-1 {
		k.width = widthMatrix(k.d)
		k.done = true
		return nil, nil
	}
	pass, err := matmul.NewPass(k.d, k.d, false)
	if err != nil {
		return nil, err
	}
	pass.SetGatherer(k.gather)
	k.pass = pass
	return pass.Nodes(), nil
}

// harvest folds the completed squaring pass (if any) into the width
// matrix and doubles the covered hop horizon. Idempotent, so
// checkpointing can force it at a pass boundary.
func (k *WidestPathKernel) harvest() error {
	if k.pass == nil {
		return nil
	}
	if err := k.pass.Gather(); err != nil {
		return err
	}
	k.d = k.pass.Sparse()
	k.pass = nil
	k.span *= 2
	return nil
}

// MaxRoundsHint forwards the in-flight squaring's round-bound hint.
func (k *WidestPathKernel) MaxRoundsHint() int {
	if k.pass == nil {
		return 0
	}
	return k.pass.MaxRoundsHint()
}

// Result returns the width matrix ([][]int64; see the file header for
// the value conventions), nil before completion.
func (k *WidestPathKernel) Result() any {
	if !k.done {
		return nil
	}
	return k.width
}

// Width returns the typed width matrix, nil before completion.
func (k *WidestPathKernel) Width() [][]int64 { return k.width }

// WidestKSourceKernel computes widest-path values from k source
// vertices as the (max,min) instantiation of the two-stage k-source
// pipeline: stage 1 powers the bottleneck adjacency to S = A^h by
// square-and-multiply, stage 2 iterates ceil((n-1)/h) dense products
// B_{t+1} = S ⊗ B_t from the source indicator columns (InfWidth at the
// source, 0 elsewhere). Unweighted session graphs are treated as
// unit-weighted.
type WidestKSourceKernel struct {
	sources []core.NodeID
	h       int

	stage     int // 0: unstarted, 1: powering, 2: relaxing, 3: done
	ps        *powerState
	rx        *matmul.Chain
	remaining int
	n         int
	width     [][]int64
	gather    engine.Gatherer
}

// SetGatherer injects the session transport's all-gather into both
// pipeline stages (clique TransportAware hook).
func (k *WidestKSourceKernel) SetGatherer(g engine.Gatherer) {
	k.gather = g
	if k.ps != nil {
		k.ps.gather = g
	}
	k.rx.SetGatherer(g)
}

// NewWidestKSourceKernel returns a k-source widest-path kernel for the
// given source vertices and per-product hop horizon h >= 1.
func NewWidestKSourceKernel(sources []core.NodeID, h int) *WidestKSourceKernel {
	return &WidestKSourceKernel{sources: sources, h: h}
}

// Name identifies the kernel.
func (k *WidestKSourceKernel) Name() string { return "widest-ksource" }

// Nodes advances the pipeline exactly as KSourceKernel does, over the
// (max,min) semiring.
func (k *WidestKSourceKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.stage == 0 {
		if err := k.start(g); err != nil {
			return nil, err
		}
	}
	if k.stage == 1 {
		pass, err := k.ps.next()
		if err != nil {
			return nil, err
		}
		if pass != nil {
			return pass.Nodes(), nil
		}
		if k.rx, err = newRelaxChain(k.ps.matrix(), k.sources, k.remaining, k.gather); err != nil {
			return nil, err
		}
		k.ps = nil
		k.stage = 2
	}
	if k.stage == 2 {
		nodes, err := k.rx.Next()
		if err != nil || nodes != nil {
			return nodes, err
		}
		k.width = valueRows(k.rx.Cur())
		k.stage = 3
	}
	return nil, nil
}

// start validates the inputs and prepares stage 1.
func (k *WidestKSourceKernel) start(g *graph.CSR) error {
	if g == nil {
		return fmt.Errorf("algo: %s kernel requires a graph-bound session (clique.New, not NewSize)", k.Name())
	}
	if k.h < 1 {
		return fmt.Errorf("algo: %s hop horizon %d must be >= 1", k.Name(), k.h)
	}
	for _, src := range k.sources {
		if err := checkSource(k.Name(), src, g); err != nil {
			return err
		}
	}
	k.n = g.N
	effH := k.h
	if limit := k.n - 1; effH > limit {
		effH = limit
	}
	if effH < 1 {
		k.remaining = 0
	} else {
		k.remaining = (k.n - 1 + effH - 1) / effH
	}
	a, err := maxminAdjacency(g.WithUnitWeights())
	if err != nil {
		return err
	}
	ps := newPowerStateOf(a, k.h)
	ps.gather = k.gather
	k.ps = ps
	k.stage = 1
	return nil
}

// MaxRoundsHint forwards the in-flight product's round-bound hint.
func (k *WidestKSourceKernel) MaxRoundsHint() int {
	if k.ps != nil {
		return k.ps.hint()
	}
	return k.rx.MaxRoundsHint()
}

// Result returns the width rows ([][]int64, width[j][v] = the widest-
// path value from sources[j] to v; see the file header for the value
// conventions), nil before completion.
func (k *WidestKSourceKernel) Result() any {
	if k.stage != 3 {
		return nil
	}
	return k.width
}

// Width returns the typed width rows, nil before completion.
func (k *WidestKSourceKernel) Width() [][]int64 { return k.width }

// WidestRef is the sequential widest-path reference: a maximum-
// bottleneck Dijkstra from src over g's weights (unit widths when g is
// unweighted). The widest-path value of each vertex is unique, so any
// correct algorithm — including the semiring pipelines above — must
// match it bit for bit.
func WidestRef(g *graph.CSR, src core.NodeID) []int64 {
	gw := g.WithUnitWeights()
	width := make([]int64, gw.N)
	if gw.N == 0 {
		return width
	}
	width[src] = core.InfWidth
	visited := make([]bool, gw.N)
	for {
		best := core.NodeID(-1)
		var bw int64
		for v := 0; v < gw.N; v++ {
			if !visited[v] && width[v] > bw {
				best, bw = core.NodeID(v), width[v]
			}
		}
		if best < 0 {
			return width
		}
		visited[best] = true
		nbrs := gw.Neighbors(best)
		ws := gw.NeighborWeights(best)
		for i, u := range nbrs {
			w := bw
			if ws[i] < w {
				w = ws[i]
			}
			if w > width[u] {
				width[u] = w
			}
		}
	}
}

// init registers the widest-path kernels with demonstration parameters
// mirroring the (min,+) pipelines' choices.
func init() {
	clique.Register("widest", func(*graph.CSR) (clique.Kernel, error) {
		return NewWidestPathKernel(), nil
	})
	clique.Register("widest-ksource", func(g *graph.CSR) (clique.Kernel, error) {
		sources := []core.NodeID{}
		if g.N > 0 {
			sources = append(sources, 0)
		}
		if g.N > 2 {
			sources = append(sources, core.NodeID(g.N/2))
		}
		return NewWidestKSourceKernel(sources, core.Log2Ceil(g.N)+1), nil
	})
}
