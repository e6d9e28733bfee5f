package algo

import (
	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// ApproxKSourceKernel computes (1+ε)-approximate shortest-path
// distances from k source vertices as a two-stage pipeline on one warm
// clique session — the hopset swap the paper's pipeline is built
// around. It is KSourceKernel with stage 1 replaced:
//
//	stage 1 (hopset construction): run hopset.ConstructKernel's β
//	  limited-hop products, then Augment the rounded adjacency with
//	  the shortcut star. Where KSourceKernel pays for the full power
//	  matrix S = A^h, the hopset only moves hub columns.
//	stage 2 (per-source relaxation): exactly KSourceKernel's stage 2
//	  with h = β: starting from the source indicator columns, iterate
//	  ceil(β) dense products B_{t+1} = S ⊗ B_t over the augmented
//	  matrix S. The hopset guarantee makes β-hop distances on S
//	  (1+ε)-accurate, so β products suffice where exactness needed
//	  ceil((n-1)/h).
//
// Every reported distance d satisfies d* <= d (always: shortcuts carry
// genuine path weights and rounding only inflates) and d <= (1+ε)·d*
// under the hopset coverage guarantee (deterministic when every vertex
// is a hub — HubRate 1 — and with high probability over Params.Seed
// otherwise). Unweighted session graphs are treated as unit-weighted.
type ApproxKSourceKernel struct {
	name    string
	sources []core.NodeID
	params  hopset.Params

	stage  int // 0: unstarted, 1: hopset, 2: relaxing, 3: done
	ck     *hopset.ConstructKernel
	hs     *hopset.Hopset
	rx     *matmul.Chain
	n      int
	dist   [][]int64
	gather engine.Gatherer
}

// SetGatherer injects the session transport's all-gather into both
// pipeline stages so every harvest assembles the full product on every
// rank (clique TransportAware hook).
func (k *ApproxKSourceKernel) SetGatherer(g engine.Gatherer) {
	k.gather = g
	if k.ck != nil {
		k.ck.SetGatherer(g)
	}
	k.rx.SetGatherer(g)
}

// NewApproxKSourceKernel returns a (1+ε)-approximate k-source distance
// kernel for the given source vertices and hopset parameters
// (zero-value fields select the defaults; see hopset.Params).
func NewApproxKSourceKernel(sources []core.NodeID, p hopset.Params) *ApproxKSourceKernel {
	return &ApproxKSourceKernel{name: "approx-ksource", sources: sources, params: p}
}

// Name identifies the kernel.
func (k *ApproxKSourceKernel) Name() string { return k.name }

// Nodes advances the pipeline: it drives the embedded hopset
// construction pass by pass, augments, and then returns one relaxation
// product per call until β products have run.
func (k *ApproxKSourceKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.stage == 0 {
		for _, src := range k.sources {
			if err := checkSource(k.Name(), src, g); err != nil {
				return nil, err
			}
		}
		k.n = g.N
		k.ck = hopset.NewConstructKernel(k.params)
		k.ck.SetGatherer(k.gather)
		k.stage = 1
	}
	if k.stage == 1 {
		nodes, err := k.ck.Nodes(g)
		if err != nil {
			return nil, err
		}
		if nodes != nil {
			return nodes, nil
		}
		// Construction finished: augment and hand the source columns to
		// the shared relaxation stage. ceil(β) products, clamped to
		// n-1: no shortest path has more hops than that even without
		// any shortcut.
		k.hs = k.ck.Hopset()
		k.ck = nil
		s, err := hopset.Augment(k.hs.Base, k.hs)
		if err != nil {
			return nil, err
		}
		remaining := k.hs.Beta
		if limit := k.n - 1; remaining > limit {
			remaining = limit
		}
		if k.rx, err = newRelaxChain(s, k.sources, remaining, k.gather); err != nil {
			return nil, err
		}
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

// MaxRoundsHint forwards the in-flight stage's round-bound hint.
func (k *ApproxKSourceKernel) MaxRoundsHint() int {
	if k.ck != nil {
		return k.ck.MaxRoundsHint()
	}
	return k.rx.MaxRoundsHint()
}

// Result returns the distance rows ([][]int64, dist[j][v] = the
// approximate distance from sources[j] to v, Unreached when
// disconnected), nil before completion.
func (k *ApproxKSourceKernel) Result() any {
	if k.stage != 3 {
		return nil
	}
	return k.dist
}

// Dist returns the typed distance rows, nil before completion.
func (k *ApproxKSourceKernel) Dist() [][]int64 { return k.dist }

// Hopset returns the hopset stage 1 constructed, nil before stage 1
// completes — observability for tests and benchmarks.
func (k *ApproxKSourceKernel) Hopset() *hopset.Hopset { return k.hs }

// ApproxSSSPKernel computes (1+ε)-approximate single-source
// shortest-path distances — the paper's headline workload — as the
// one-source specialization of ApproxKSourceKernel: hopset
// construction, then ceil(β) relaxation products over the augmented
// matrix, all on one warm session. Result/Dist hold the distance
// vector ([]int64) after completion.
type ApproxSSSPKernel struct {
	inner *ApproxKSourceKernel
}

// SetGatherer forwards the transport's all-gather to the embedded
// k-source pipeline (clique TransportAware hook).
func (k *ApproxSSSPKernel) SetGatherer(g engine.Gatherer) { k.inner.SetGatherer(g) }

// NewApproxSSSPKernel returns a (1+ε)-approximate SSSP kernel from src
// with the given hopset parameters (zero-value fields select the
// defaults; see hopset.Params).
func NewApproxSSSPKernel(src core.NodeID, p hopset.Params) *ApproxSSSPKernel {
	inner := NewApproxKSourceKernel([]core.NodeID{src}, p)
	inner.name = "approx-sssp"
	return &ApproxSSSPKernel{inner: inner}
}

// Name identifies the kernel.
func (k *ApproxSSSPKernel) Name() string { return k.inner.Name() }

// Nodes forwards to the embedded k-source pipeline.
func (k *ApproxSSSPKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	return k.inner.Nodes(g)
}

// MaxRoundsHint forwards the in-flight stage's round-bound hint.
func (k *ApproxSSSPKernel) MaxRoundsHint() int { return k.inner.MaxRoundsHint() }

// Result returns the distance vector ([]int64, Unreached for
// disconnected vertices), nil before completion.
func (k *ApproxSSSPKernel) Result() any {
	if d := k.Dist(); d != nil {
		return d
	}
	return nil
}

// Dist returns the typed distance vector, nil before completion.
func (k *ApproxSSSPKernel) Dist() []int64 {
	rows := k.inner.Dist()
	if rows == nil {
		return nil
	}
	return rows[0]
}

// Hopset returns the hopset stage 1 constructed, nil before stage 1
// completes.
func (k *ApproxSSSPKernel) Hopset() *hopset.Hopset { return k.inner.Hopset() }

// ApproxSSSP computes (1+ε)-approximate single-source shortest-path
// distances on a weighted g (non-negative integer weights) by running
// an ApproxSSSPKernel on a single-use clique session: dist[v] is
// within [d*, (1+ε)·d*] of the true distance d* under the hopset
// guarantee (see ApproxKSourceKernel), Unreached when disconnected.
func ApproxSSSP(g *graph.CSR, src core.NodeID, p hopset.Params, opts engine.Options) ([]int64, *engine.Stats, error) {
	if err := checkDistanceInput(g); err != nil {
		return nil, nil, err
	}
	k := NewApproxSSSPKernel(src, p)
	stats, err := runGraphKernel(g, k, opts)
	if err != nil {
		return nil, stats, err
	}
	return k.Dist(), stats, nil
}

// ApproxKSourceDistances computes (1+ε)-approximate shortest-path
// distances from each source on a weighted g by running an
// ApproxKSourceKernel on a single-use clique session; dist[j][v] is
// the approximate distance from sources[j] to v.
func ApproxKSourceDistances(g *graph.CSR, sources []core.NodeID, p hopset.Params, opts engine.Options) ([][]int64, *engine.Stats, error) {
	if err := checkDistanceInput(g); err != nil {
		return nil, nil, err
	}
	k := NewApproxKSourceKernel(sources, p)
	stats, err := runGraphKernel(g, k, opts)
	if err != nil {
		return nil, stats, err
	}
	return k.Dist(), stats, nil
}

// init registers the approximate kernels with demonstration parameters
// (default hopset Params) so ccbench -kernel and the registry sweeps
// can run them on any input.
func init() {
	registerApprox()
}

// registerApprox wires the approximate kernels into the clique
// registry, mirroring the exact kernels' demo parameter choices.
func registerApprox() {
	clique.Register("approx-sssp", func(*graph.CSR) (clique.Kernel, error) {
		return NewApproxSSSPKernel(0, hopset.Params{}), nil
	})
	clique.Register("approx-ksource", func(g *graph.CSR) (clique.Kernel, error) {
		sources := []core.NodeID{}
		if g.N > 0 {
			sources = append(sources, 0)
		}
		if g.N > 2 {
			sources = append(sources, core.NodeID(g.N/2))
		}
		return NewApproxKSourceKernel(sources, hopset.Params{}), nil
	})
}
