// Checkpoint serialization for the hopset construction kernel and its
// products. ConstructKernel implements clique.Checkpointable: its
// inter-pass state is the resolved Params, the sampled hub list, and
// the product chain (the rounded base adjacency, the current and
// previous hub distance columns, and the remaining product count) —
// all plain data once the in-flight pass has been harvested at a pass
// boundary. The finished *Hopset itself is never serialized by the
// kernel: the done state re-runs assemble on restore, which is
// deterministic given the serialized fields.
package hopset

import (
	"fmt"
	"io"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// kernelStateVersion stamps the ConstructKernel state blob. Version 2
// carries the product chain with its previous columns, which the delta
// products need.
const kernelStateVersion uint64 = 2

// WriteParams encodes p to the ckptio writer — shared with the
// approximate shortest-path kernels in internal/algo, whose state
// embeds hopset parameters.
func WriteParams(w *ckptio.Writer, p Params) {
	w.I64(int64(p.Beta))
	w.F64(p.Eps)
	w.F64(p.HubRate)
	w.I64(p.Seed)
}

// ReadParams decodes parameters written by WriteParams.
func ReadParams(r *ckptio.Reader) Params {
	return Params{
		Beta:    int(r.I64()),
		Eps:     r.F64(),
		HubRate: r.F64(),
		Seed:    r.I64(),
	}
}

// WriteHopset encodes hs (nil allowed) to the ckptio writer.
func WriteHopset(w *ckptio.Writer, hs *Hopset) {
	if hs == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(int64(hs.Beta))
	w.F64(hs.Eps)
	w.NodeIDs(hs.Hubs)
	matmul.WriteMatrix(w, hs.Shortcuts)
	matmul.WriteMatrix(w, hs.Base)
}

// ReadHopset decodes a hopset written by WriteHopset (nil when
// absent).
func ReadHopset(r *ckptio.Reader) (*Hopset, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	hs := &Hopset{}
	hs.Beta = int(r.I64())
	hs.Eps = r.F64()
	hs.Hubs = r.NodeIDs()
	var err error
	if hs.Shortcuts, err = matmul.ReadMatrix(r); err != nil {
		return nil, err
	}
	if hs.Base, err = matmul.ReadMatrix(r); err != nil {
		return nil, err
	}
	return hs, r.Err()
}

// SnapshotState serializes the construction's inter-pass state. Called
// at pass boundaries only (clique.Checkpointable); the in-flight
// product, if any, is harvested first.
func (k *ConstructKernel) SnapshotState(w io.Writer) error {
	if err := k.chain.Harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.I64(int64(k.stage))
	WriteParams(cw, k.params)
	cw.NodeIDs(k.hubs)
	matmul.WriteChain(cw, k.chain)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel. A kernel that has already started returns
// clique.ErrKernelStarted; a done-state blob re-runs the deterministic
// assembly so Result is available immediately.
func (k *ConstructKernel) RestoreState(r io.Reader) error {
	if k.stage != 0 {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if v := cr.U64(); cr.Err() == nil && v != kernelStateVersion {
		return fmt.Errorf("hopset: kernel state version %d, this build reads version %d", v, kernelStateVersion)
	}
	stage := int(cr.I64())
	params := ReadParams(cr)
	hubs := cr.NodeIDs()
	chain, err := matmul.ReadChain(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if stage < 1 || stage > 2 {
		return fmt.Errorf("hopset: kernel state has implausible stage %d", stage)
	}
	if chain == nil {
		return fmt.Errorf("hopset: kernel state has no product chain")
	}
	if len(hubs) != chain.Cur().K {
		return fmt.Errorf("hopset: kernel state has %d hubs for %d distance columns", len(hubs), chain.Cur().K)
	}
	chain.SetGatherer(k.gather)
	k.stage, k.params, k.hubs, k.chain = stage, params, hubs, chain
	if stage == 2 {
		hs, err := assemble(params, hubs, chain.Matrix(), chain.Cur())
		if err != nil {
			return err
		}
		k.hs = hs
	}
	return nil
}
