// Checkpoint serialization for the multi-pass algorithm kernels. Every
// kernel here implements clique.Checkpointable with the same shape:
// SnapshotState harvests the pass that just completed (harvest is
// idempotent, so the live run is undisturbed) and serializes the
// remaining inter-pass state — matrices plus a pass cursor — in the
// internal/ckptio format with a version word and integrity trailer;
// RestoreState refuses kernels that have already started
// (clique.ErrKernelStarted), verifies the trailer before applying
// anything, and recomputes derived results (distance rows) from the
// restored matrices rather than trusting serialized copies.
package algo

import (
	"fmt"
	"io"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// kernelStateVersion stamps every algo kernel state blob. Version 2
// encodes the relaxation stage as a matmul.Chain, previous columns
// included.
const kernelStateVersion uint64 = 2

// checkStateVersion reads and checks the leading version word.
func checkStateVersion(cr *ckptio.Reader) error {
	if v := cr.U64(); cr.Err() == nil && v != kernelStateVersion {
		return fmt.Errorf("algo: kernel state version %d, this build reads version %d", v, kernelStateVersion)
	}
	return nil
}

// writePowerState encodes a (possibly nil) square-and-multiply cursor.
// The caller must have harvested any in-flight pass.
func writePowerState(w *ckptio.Writer, ps *powerState) {
	if ps == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(int64(ps.n))
	w.I64(int64(ps.e))
	w.I64(int64(ps.phase))
	matmul.WriteMatrix(w, ps.base)
	matmul.WriteMatrix(w, ps.result)
}

// readPowerState decodes a cursor written by writePowerState.
func readPowerState(r *ckptio.Reader) (*powerState, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	ps := &powerState{}
	ps.n = int(r.I64())
	ps.e = int(r.I64())
	ps.phase = int(r.I64())
	var err error
	if ps.base, err = matmul.ReadMatrix(r); err != nil {
		return nil, err
	}
	if ps.result, err = matmul.ReadMatrix(r); err != nil {
		return nil, err
	}
	return ps, r.Err()
}

// SnapshotState serializes the repeated-squaring state: the current
// distance matrix and the covered hop horizon.
func (k *APSPKernel) SnapshotState(w io.Writer) error {
	if err := k.harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.Bool(k.started)
	cw.Bool(k.done)
	cw.I64(int64(k.n))
	cw.I64(int64(k.span))
	matmul.WriteMatrix(cw, k.d)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), recomputing the distance
// rows when the blob captured a completed run.
func (k *APSPKernel) RestoreState(r io.Reader) error {
	if k.started || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	started := cr.Bool()
	done := cr.Bool()
	n := int(cr.I64())
	span := int(cr.I64())
	d, err := matmul.ReadMatrix(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	k.started, k.done, k.n, k.span, k.d = started, done, n, span, d
	if done && d != nil {
		k.dist = distMatrix(d)
	}
	return nil
}

// SnapshotState serializes the hop-limited power iteration state.
func (k *HopLimitedKernel) SnapshotState(w io.Writer) error {
	if k.ps != nil {
		if err := k.ps.harvest(); err != nil {
			return err
		}
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.I64(int64(k.h))
	cw.Bool(k.done)
	writePowerState(cw, k.ps)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise).
func (k *HopLimitedKernel) RestoreState(r io.Reader) error {
	if k.ps != nil || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	h := int(cr.I64())
	done := cr.Bool()
	ps, err := readPowerState(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	k.h, k.done, k.ps = h, done, ps
	if k.ps != nil {
		k.ps.gather = k.gather
	}
	if done && ps != nil {
		k.dist = distMatrix(ps.matrix())
	}
	return nil
}

// SnapshotState serializes the two-stage pipeline state: the stage
// cursor plus whichever of the powering and relaxation cursors is
// live.
func (k *KSourceKernel) SnapshotState(w io.Writer) error {
	if k.ps != nil {
		if err := k.ps.harvest(); err != nil {
			return err
		}
	}
	if err := k.rx.Harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.I64(int64(k.stage))
	cw.I64(int64(k.h))
	cw.I64(int64(k.n))
	cw.I64(int64(k.remaining))
	cw.NodeIDs(k.sources)
	writePowerState(cw, k.ps)
	matmul.WriteChain(cw, k.rx)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), recomputing the distance
// rows for a completed-run blob.
func (k *KSourceKernel) RestoreState(r io.Reader) error {
	if k.stage != 0 {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	stage := int(cr.I64())
	h := int(cr.I64())
	n := int(cr.I64())
	remaining := int(cr.I64())
	sources := cr.NodeIDs()
	ps, err := readPowerState(cr)
	if err != nil {
		return err
	}
	rx, err := matmul.ReadChain(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if stage < 1 || stage > 3 {
		return fmt.Errorf("algo: %s state has implausible stage %d", k.Name(), stage)
	}
	k.stage, k.h, k.n, k.remaining, k.sources, k.ps, k.rx = stage, h, n, remaining, sources, ps, rx
	if k.ps != nil {
		k.ps.gather = k.gather
	}
	k.rx.SetGatherer(k.gather)
	if stage == 3 && rx != nil {
		k.dist = distRows(rx.Cur())
	}
	return nil
}

// SnapshotState serializes the approximate pipeline state: the stage
// cursor, the embedded hopset construction (stage 1) or the
// constructed hopset plus relaxation cursor (stages 2-3).
func (k *ApproxKSourceKernel) SnapshotState(w io.Writer) error {
	if err := k.rx.Harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.String(k.name)
	cw.I64(int64(k.stage))
	cw.I64(int64(k.n))
	cw.NodeIDs(k.sources)
	hopset.WriteParams(cw, k.params)
	if k.ck != nil {
		var inner writerBuffer
		if err := k.ck.SnapshotState(&inner); err != nil {
			return err
		}
		cw.Blob(inner.buf)
	} else {
		cw.Blob(nil)
	}
	hopset.WriteHopset(cw, k.hs)
	matmul.WriteChain(cw, k.rx)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise). The embedded hopset
// construction is restored through its own Checkpointable
// implementation; completed-run blobs recompute the distance rows.
func (k *ApproxKSourceKernel) RestoreState(r io.Reader) error {
	if k.stage != 0 {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	name := cr.String()
	stage := int(cr.I64())
	n := int(cr.I64())
	sources := cr.NodeIDs()
	params := hopset.ReadParams(cr)
	ckBlob := cr.Blob()
	hs, err := hopset.ReadHopset(cr)
	if err != nil {
		return err
	}
	rx, err := matmul.ReadChain(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if name != k.name {
		return fmt.Errorf("algo: state is for kernel %q, not %q", name, k.name)
	}
	if stage < 1 || stage > 3 {
		return fmt.Errorf("algo: %s state has implausible stage %d", k.Name(), stage)
	}
	var ck *hopset.ConstructKernel
	if len(ckBlob) > 0 {
		ck = hopset.NewConstructKernel(params)
		if err := ck.RestoreState(byteReader(ckBlob)); err != nil {
			return err
		}
	}
	k.stage, k.n, k.sources, k.params, k.ck, k.hs, k.rx = stage, n, sources, params, ck, hs, rx
	if k.ck != nil {
		k.ck.SetGatherer(k.gather)
	}
	k.rx.SetGatherer(k.gather)
	if stage == 3 && rx != nil {
		k.dist = distRows(rx.Cur())
	}
	return nil
}

// SnapshotState serializes the (max,min) repeated-squaring state,
// mirroring APSPKernel's shape.
func (k *WidestPathKernel) SnapshotState(w io.Writer) error {
	if err := k.harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.Bool(k.started)
	cw.Bool(k.done)
	cw.I64(int64(k.n))
	cw.I64(int64(k.span))
	matmul.WriteMatrix(cw, k.d)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), recomputing the width
// rows when the blob captured a completed run.
func (k *WidestPathKernel) RestoreState(r io.Reader) error {
	if k.started || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	started := cr.Bool()
	done := cr.Bool()
	n := int(cr.I64())
	span := int(cr.I64())
	d, err := matmul.ReadMatrix(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	k.started, k.done, k.n, k.span, k.d = started, done, n, span, d
	if done && d != nil {
		k.width = widthMatrix(d)
	}
	return nil
}

// SnapshotState serializes the boolean repeated-squaring state,
// mirroring APSPKernel's shape.
func (k *TransitiveClosureKernel) SnapshotState(w io.Writer) error {
	if err := k.harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.Bool(k.started)
	cw.Bool(k.done)
	cw.I64(int64(k.n))
	cw.I64(int64(k.span))
	matmul.WriteMatrix(cw, k.d)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), recomputing the
// reachability rows when the blob captured a completed run.
func (k *TransitiveClosureKernel) RestoreState(r io.Reader) error {
	if k.started || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	started := cr.Bool()
	done := cr.Bool()
	n := int(cr.I64())
	span := int(cr.I64())
	d, err := matmul.ReadMatrix(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	k.started, k.done, k.n, k.span, k.d = started, done, n, span, d
	if done && d != nil {
		k.reach = reachMatrix(d)
	}
	return nil
}

// SnapshotState serializes the widest-path two-stage pipeline state,
// mirroring KSourceKernel's shape.
func (k *WidestKSourceKernel) SnapshotState(w io.Writer) error {
	if k.ps != nil {
		if err := k.ps.harvest(); err != nil {
			return err
		}
	}
	if err := k.rx.Harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.I64(int64(k.stage))
	cw.I64(int64(k.h))
	cw.I64(int64(k.n))
	cw.I64(int64(k.remaining))
	cw.NodeIDs(k.sources)
	writePowerState(cw, k.ps)
	matmul.WriteChain(cw, k.rx)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), recomputing the width
// rows for a completed-run blob.
func (k *WidestKSourceKernel) RestoreState(r io.Reader) error {
	if k.stage != 0 {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	stage := int(cr.I64())
	h := int(cr.I64())
	n := int(cr.I64())
	remaining := int(cr.I64())
	sources := cr.NodeIDs()
	ps, err := readPowerState(cr)
	if err != nil {
		return err
	}
	rx, err := matmul.ReadChain(cr)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if stage < 1 || stage > 3 {
		return fmt.Errorf("algo: %s state has implausible stage %d", k.Name(), stage)
	}
	k.stage, k.h, k.n, k.remaining, k.sources, k.ps, k.rx = stage, h, n, remaining, sources, ps, rx
	if k.ps != nil {
		k.ps.gather = k.gather
	}
	k.rx.SetGatherer(k.gather)
	if stage == 3 && rx != nil {
		k.width = valueRows(rx.Cur())
	}
	return nil
}

// SnapshotState serializes the Borůvka state at a phase boundary: the
// component labels and the forest accumulated so far. The harvest —
// gathering leader choices and merging components — runs first, so the
// blob never carries raw per-node pass state.
func (k *MSTKernel) SnapshotState(w io.Writer) error {
	if err := k.harvest(); err != nil {
		return err
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.Bool(k.started)
	cw.Bool(k.done)
	cw.I64(int64(k.n))
	cw.I64(k.weight)
	cw.NodeIDs(k.comp)
	flat := make([]int64, 0, 3*len(k.edges))
	for _, e := range k.edges {
		flat = append(flat, int64(e.U), int64(e.V), e.W)
	}
	cw.I64s(flat)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise). The graph-derived fields
// (adjacency, packing widths) are rebuilt by the first Nodes call on
// the restored session, which re-runs start's validation against the
// session graph.
func (k *MSTKernel) RestoreState(r io.Reader) error {
	if k.started || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	started := cr.Bool()
	done := cr.Bool()
	n := int(cr.I64())
	weight := cr.I64()
	comp := cr.NodeIDs()
	flat := cr.I64s()
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if len(flat)%3 != 0 {
		return fmt.Errorf("algo: %s state has a torn edge list (%d words)", k.Name(), len(flat))
	}
	if started && len(comp) != n {
		return fmt.Errorf("algo: %s state has %d component labels for n = %d", k.Name(), len(comp), n)
	}
	edges := make([]MSTEdge, 0, len(flat)/3)
	for i := 0; i+2 < len(flat); i += 3 {
		edges = append(edges, MSTEdge{U: core.NodeID(flat[i]), V: core.NodeID(flat[i+1]), W: flat[i+2]})
	}
	k.started, k.done, k.n, k.weight, k.comp, k.edges = started, done, n, weight, comp, edges
	return nil
}

// SnapshotState serializes the sampling header plus the embedded
// k-source pipeline's own checkpoint blob (the ApproxKSourceKernel
// nesting idiom).
func (k *DiameterEstimateKernel) SnapshotState(w io.Writer) error {
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.String(k.name)
	cw.Bool(k.started)
	cw.Bool(k.done)
	cw.I64(int64(k.sample))
	cw.I64(k.seed)
	cw.I64(int64(k.n))
	cw.NodeIDs(k.sources)
	hopset.WriteParams(cw, k.params)
	if k.started && !k.done {
		var inner writerBuffer
		if err := k.inner().(clique.Checkpointable).SnapshotState(&inner); err != nil {
			return err
		}
		cw.Blob(inner.buf)
	} else {
		cw.Blob(nil)
	}
	if k.done {
		cw.I64(k.est.Estimate)
		cw.I64s(k.est.Ecc)
	}
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), rebuilding and restoring
// the embedded pipeline from its nested blob.
func (k *DiameterEstimateKernel) RestoreState(r io.Reader) error {
	if k.started || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if err := checkStateVersion(cr); err != nil {
		return err
	}
	name := cr.String()
	started := cr.Bool()
	done := cr.Bool()
	sample := int(cr.I64())
	seed := cr.I64()
	n := int(cr.I64())
	sources := cr.NodeIDs()
	params := hopset.ReadParams(cr)
	innerBlob := cr.Blob()
	var est DiameterEstimate
	if done {
		est = DiameterEstimate{Estimate: cr.I64(), Sources: sources, Ecc: cr.I64s()}
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if name != k.name {
		return fmt.Errorf("algo: state is for kernel %q, not %q", name, k.name)
	}
	k.started, k.done, k.sample, k.seed, k.n, k.sources, k.params, k.est = started, done, sample, seed, n, sources, params, est
	if len(innerBlob) > 0 {
		if k.approx {
			k.innerA = NewApproxKSourceKernel(sources, params)
			k.innerA.SetGatherer(k.gather)
			if err := k.innerA.RestoreState(byteReader(innerBlob)); err != nil {
				return err
			}
		} else {
			k.innerK = NewKSourceKernel(sources, core.Log2Ceil(n)+1)
			k.innerK.SetGatherer(k.gather)
			if err := k.innerK.RestoreState(byteReader(innerBlob)); err != nil {
				return err
			}
		}
	}
	return nil
}

// SnapshotState forwards to the embedded k-source pipeline.
func (k *ApproxSSSPKernel) SnapshotState(w io.Writer) error { return k.inner.SnapshotState(w) }

// RestoreState forwards to the embedded k-source pipeline.
func (k *ApproxSSSPKernel) RestoreState(r io.Reader) error { return k.inner.RestoreState(r) }

// writerBuffer is a minimal in-memory io.Writer (avoiding a bytes
// import for one use).
type writerBuffer struct{ buf []byte }

// Write appends p to the buffer.
func (w *writerBuffer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// byteReader adapts a byte slice to io.Reader.
func byteReader(p []byte) io.Reader { return &sliceReader{p: p} }

// sliceReader is the io.Reader behind byteReader.
type sliceReader struct{ p []byte }

// Read copies from the remaining bytes.
func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.p) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.p)
	r.p = r.p[n:]
	return n, nil
}
