package algo

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// KSourceKernel computes exact shortest-path distances from k source
// vertices as a two-stage pipeline on one warm clique session — the
// composition skeleton the Dory-Parter hopset construction drops into:
//
//	stage 1 (hop-limited matrix powering): compute S = A^h, the h-hop
//	  distance matrix, by square-and-multiply — one sparse engine
//	  product per step. With a hopset, S would instead be the
//	  hopset-augmented adjacency matrix with a small h.
//	stage 2 (per-source relaxation): starting from the k source
//	  indicator columns B_0 (0 at the source, Inf elsewhere), iterate
//	  the dense product B_{t+1} = S ⊗ B_t — each product advances the
//	  hop horizon by h at once, so ceil((n-1)/h) products reach
//	  exactness.
//
// Both stages bill their engine passes to the same session Stats, which
// is exactly the cross-stage round accounting the paper's pipeline
// analysis performs. Unweighted session graphs are treated as
// unit-weighted.
type KSourceKernel struct {
	sources []core.NodeID
	h       int

	stage     int // 0: unstarted, 1: powering, 2: relaxing, 3: done
	ps        *powerState
	rx        *matmul.Chain
	remaining int
	n         int
	dist      [][]int64
	gather    engine.Gatherer
}

// SetGatherer injects the session transport's all-gather into both
// pipeline stages so every harvest assembles the full product on every
// rank (clique TransportAware hook).
func (k *KSourceKernel) SetGatherer(g engine.Gatherer) {
	k.gather = g
	if k.ps != nil {
		k.ps.gather = g
	}
	k.rx.SetGatherer(g)
}

// NewKSourceKernel returns a k-source distance kernel for the given
// source vertices and per-product hop horizon h >= 1. Larger h shifts
// work from stage 2 (fewer dense products) to stage 1 (a denser power
// matrix) — with h = 1 stage 1 is free and stage 2 degenerates to n-1
// Bellman-Ford-style relaxation products.
func NewKSourceKernel(sources []core.NodeID, h int) *KSourceKernel {
	return &KSourceKernel{sources: sources, h: h}
}

// Name identifies the kernel.
func (k *KSourceKernel) Name() string { return "ksource" }

// Nodes advances the pipeline: it harvests the pass that just ran,
// moves between stages as they complete, and returns the next engine
// pass until the distances are exact.
func (k *KSourceKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
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
		// Powering finished: S = A^h. Hand off to the shared relaxation
		// stage and fall through.
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
		k.dist = distRows(k.rx.Cur())
		k.stage = 3
	}
	return nil, nil
}

// start validates the inputs and prepares stage 1.
func (k *KSourceKernel) start(g *graph.CSR) error {
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
	// The power clamps to n-1 (newPowerState); size the relaxation
	// count from the same effective horizon so t*h >= n-1 exactly.
	effH := k.h
	if limit := k.n - 1; effH > limit {
		effH = limit
	}
	if effH < 1 {
		// n <= 1: no relaxation needed, S is irrelevant.
		k.remaining = 0
	} else {
		k.remaining = (k.n - 1 + effH - 1) / effH
	}
	// newPowerState also validates weight non-negativity via
	// minplusAdjacency — no separate scan needed.
	ps, err := newPowerState(g.WithUnitWeights(), k.h)
	if err != nil {
		return err
	}
	ps.gather = k.gather
	k.ps = ps
	k.stage = 1
	return nil
}

// MaxRoundsHint forwards the in-flight product's round-bound hint.
func (k *KSourceKernel) MaxRoundsHint() int {
	if k.ps != nil {
		return k.ps.hint()
	}
	return k.rx.MaxRoundsHint()
}

// Result returns the distance rows ([][]int64, dist[j][v] = distance
// from sources[j] to v, Unreached when disconnected), nil before
// completion.
func (k *KSourceKernel) Result() any {
	if k.stage != 3 {
		return nil
	}
	return k.dist
}

// Dist returns the typed distance rows, nil before completion.
func (k *KSourceKernel) Dist() [][]int64 { return k.dist }

// KSourceDistances computes exact shortest-path distances from each of
// the given source vertices on a weighted g (non-negative integer
// weights): dist[j][v] is the distance from sources[j] to v, Unreached
// when disconnected. It runs the two-stage KSourceKernel pipeline
// (hop-limited matrix powering, then per-source relaxation) on a
// single-use clique session; callers composing further stages should
// run the kernel on their own session instead.
func KSourceDistances(g *graph.CSR, sources []core.NodeID, h int, opts engine.Options) ([][]int64, *engine.Stats, error) {
	if err := checkDistanceInput(g); err != nil {
		return nil, nil, err
	}
	k := NewKSourceKernel(sources, h)
	stats, err := runGraphKernel(g, k, opts)
	if err != nil {
		return nil, stats, err
	}
	return k.Dist(), stats, nil
}
