package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
	"github.com/paper-repo-growth/doryp20/internal/trace"
)

// The benchmark's own spans go on a timeline row of their own, beside
// the engine's rounds, phases and passes. Span names are static
// strings because the recorder keeps only the string header.
const (
	laneBench = 3
	catBench  = "bench"
)

// tracer records the benchmark's spans around calls into each layer.
// Spans that belong to one solve or one request carry its ID.
type tracer struct{ rec *trace.Recorder }

func (tr tracer) span(name string, id int, start time.Time, d time.Duration) {
	if tr.rec == nil {
		return
	}
	tr.rec.Record(trace.Span{
		Name: name, Cat: catBench, Lane: laneBench,
		Start: tr.rec.Since(start), Dur: int64(d), Round: int64(id),
	})
}

// write exports the recorder as a Chrome trace tools/tracestat reads.
func (tr tracer) write(path string) error {
	if dropped := tr.rec.Dropped(); dropped > 0 {
		fmt.Fprintf(logw, "trace ring overflowed: %d oldest spans dropped\n", dropped)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := trace.WriteChromeFile(path, tr.rec); err != nil {
		return err
	}
	fmt.Fprintf(logw, "chrome trace: %s\n", path)
	return nil
}

// attachPasses gives each sample the engine pass spans that started
// inside its run. It reads the recorder once, after the timed runs.
func (tr tracer) attachPasses(samples []layerSample) {
	spans := tr.rec.Spans()
	for i := range samples {
		lo := tr.rec.Since(samples[i].start)
		hi := lo + int64(samples[i].wall)
		for _, s := range spans {
			if s.Cat == trace.CatPass && s.Start >= lo && s.Start < hi {
				samples[i].passDur = append(samples[i].passDur, time.Duration(s.Dur))
			}
		}
	}
}

// roundAcc sums the round hook's per-round phase splits between two
// calls of take. The hook runs on the session's run loop, and take is
// only called between runs, so no lock is needed.
type roundAcc struct {
	compute, exchange, barrier time.Duration
}

func (a *roundAcc) observe(rs engine.RoundStats) {
	a.compute += rs.Compute
	a.exchange += rs.Exchange
	a.barrier += rs.BarrierWait
}

func (a *roundAcc) take() roundAcc {
	v := *a
	*a = roundAcc{}
	return v
}

// tracedOpts adds the trace and round-hook taps feeding rec and acc.
func tracedOpts(rec *trace.Recorder, acc *roundAcc, opts ...clique.Option) []clique.Option {
	return append(opts, clique.WithTrace(rec), clique.WithRoundHook(acc.observe))
}

// layerSample is one traced run of a kernel: its start, wall time,
// session accounting, round-hook sums, heap allocation and, once
// attachPasses has run, its pass spans.
type layerSample struct {
	solveStats
	start   time.Time
	acc     roundAcc
	alloc   uint64
	passDur []time.Duration
}

// tracedRun runs k on a traced session and samples every layer tap.
func tracedRun(sess *clique.Session, tr tracer, acc *roundAcc, name string, id int, k clique.Kernel) (layerSample, error) {
	acc.take()
	a0 := totalAllocBytes()
	start := time.Now()
	st, err := timedSolve(sess, k)
	alloc := totalAllocBytes() - a0
	tr.span(name, id, start, st.wall)
	return layerSample{solveStats: st, start: start, acc: acc.take(), alloc: alloc}, err
}

// stageRun is the hopset pipeline run as separate stages, the way the
// server's cache path runs it: ConstructKernel, then Augment, then a
// RelaxKernel over the augmented matrix.
type stageRun struct {
	construct layerSample
	augment   time.Duration
	relax     layerSample
	shortcuts int
	rows      [][]int64
}

// constructStage builds the hopset and the augmented matrix.
func constructStage(sess *clique.Session, tr tracer, acc *roundAcc, id int, eps float64) (layerSample, time.Duration, *hopset.Hopset, *matmul.Matrix, error) {
	ck := hopset.NewConstructKernel(hopset.Params{Eps: eps})
	c, err := tracedRun(sess, tr, acc, "hopset.construct", id, ck)
	if err != nil {
		return c, 0, nil, nil, err
	}
	hs := ck.Hopset()
	t := time.Now()
	aug, err := hopset.Augment(hs.Base, hs)
	augment := time.Since(t)
	tr.span("hopset.augment", id, t, augment)
	return c, augment, hs, aug, err
}

// relaxStage relaxes the sources over an augmented matrix.
func relaxStage(sess *clique.Session, tr tracer, acc *roundAcc, id int, aug *matmul.Matrix, beta int, src []core.NodeID) (layerSample, [][]int64, error) {
	rk := algo.NewRelaxKernel(aug, src, algo.RelaxProducts(beta, aug.N))
	r, err := tracedRun(sess, tr, acc, "algo.relax", id, rk)
	return r, rk.Dist(), err
}

func runStages(sess *clique.Session, tr tracer, acc *roundAcc, id int, eps float64, src []core.NodeID) (stageRun, error) {
	var s stageRun
	var err error
	var hs *hopset.Hopset
	var aug *matmul.Matrix
	if s.construct, s.augment, hs, aug, err = constructStage(sess, tr, acc, id, eps); err != nil {
		return s, err
	}
	s.shortcuts = hs.Shortcuts.NNZ()
	s.relax, s.rows, err = relaxStage(sess, tr, acc, id, aug, hs.Beta, src)
	return s, err
}

// engineLayers fills the engine, clique and matmul metrics from traced
// samples of one kernel and the median untraced wall time of the same
// kernel in ns. n is the clique size.
func engineLayers(vals map[string]float64, n int, traced []layerSample, plainNs float64) {
	var passes, words, rounds, compute, exchange, barrier, alloc []float64
	var passMs []float64
	var totalWords, totalPasses float64
	for _, s := range traced {
		passes = append(passes, float64(s.passes))
		words = append(words, float64(s.words))
		rounds = append(rounds, float64(s.rounds))
		compute = append(compute, seconds(s.acc.compute))
		exchange = append(exchange, seconds(s.acc.exchange))
		barrier = append(barrier, seconds(s.acc.barrier))
		alloc = append(alloc, float64(s.alloc)/(1<<20))
		passMs = append(passMs, durations(s.passDur, time.Millisecond)...)
		totalWords += float64(s.words)
		totalPasses += float64(len(s.passDur))
	}
	w, r := median(words), median(rounds)
	vals["clique.passes"] = median(passes)
	vals["clique.alloc_mb"] = median(alloc)
	vals["engine.words"] = w
	vals["engine.compute_s"] = median(compute)
	vals["engine.exchange_s"] = median(exchange)
	vals["engine.barrier_wait_s"] = median(barrier)
	if w > 0 {
		vals["engine.ns_per_word"] = plainNs / w
	}
	if r > 0 {
		vals["engine.us_per_round"] = plainNs / 1e3 / r
		linkCap := float64(core.DefaultBudget(n).MsgsPerLink())
		vals["engine.link_util"] = w / (r * float64(n) * float64(n-1) * linkCap)
	}
	vals["matmul.pass_ms_p50"] = median(passMs)
	vals["matmul.pass_ms_max"] = quantile(passMs, 1)
	if totalPasses > 0 {
		vals["matmul.words_per_pass"] = totalWords / totalPasses
	}
}

// stageLayers fills the hopset and relaxation metrics.
func stageLayers(vals map[string]float64, construct, relax []layerSample, augment []time.Duration, shortcuts []float64) {
	var cs, cr, rs, rr []float64
	for _, s := range construct {
		cs = append(cs, seconds(s.wall))
		cr = append(cr, float64(s.rounds))
	}
	for _, s := range relax {
		rs = append(rs, seconds(s.wall))
		rr = append(rr, float64(s.rounds))
	}
	vals["hopset.construct_s"] = median(cs)
	vals["hopset.construct_rounds"] = median(cr)
	vals["hopset.augment_ms"] = median(durations(augment, time.Millisecond))
	vals["hopset.shortcuts"] = median(shortcuts)
	vals["algo.relax_s"] = median(rs)
	vals["algo.relax_rounds"] = median(rr)
}

// traceKernel is the traced run of a kernel workload. It interleaves,
// solve by solve, an untraced solve (as in the end-to-end run), a
// traced solve with the round hook and heap sampling on, for mssp a
// solve with digests off, and for staged workloads the pipeline run
// stage by stage on the traced session of that cycle. Interleaving
// keeps drift on the host from biasing the ratios between them; each
// kind of solve has its own rotation of sessions.
func traceKernel(cfg config, spec kernelSpec) (result, error) {
	n := cfg.size(spec.n)
	rng := rand.New(rand.NewSource(cfg.seed))
	g, plain, setup, err := setupSessions(n, rng.Int63(), kernelSetupRepeats, spec.sessionOpts()...)
	if err != nil {
		return result{}, err
	}
	defer plain.close()
	tr := tracer{trace.NewRecorder(traceCapacity)}
	var acc roundAcc
	traced, err := newRotation(g, tracedOpts(tr.rec, &acc, spec.sessionOpts()...)...)
	if err != nil {
		return result{}, err
	}
	defer traced.close()
	var noDigests *rotation
	if spec.digests {
		if noDigests, err = newRotation(g); err != nil {
			return result{}, err
		}
		defer noDigests.close()
	}
	orc := newOracle(g)

	var t tally
	var samples, construct, relax []layerSample
	var augment []time.Duration
	var shortcuts, residual []float64
	var last time.Duration
	start := time.Now()
	for id := 0; id == 0 || more(start, cfg.budget, last); id++ {
		c0 := time.Now()
		in := spec.newSolve(rng, n)
		_, err := plain.solve(in.k)
		t.add("solve", err, checkIf(err, func() int { return orc.checkRows(in.sources, in.rows(), spec.eps) }))

		in = spec.newSolve(rng, n)
		sess, i := traced.session()
		s, err := tracedRun(sess, tr, &acc, "solve", id, in.k)
		if err == nil {
			traced.walls[i] = append(traced.walls[i], s.wall)
			samples = append(samples, s)
		}
		t.add("traced solve", err, checkIf(err, func() int { return orc.checkRows(in.sources, in.rows(), spec.eps) }))

		if noDigests != nil {
			in = spec.newSolve(rng, n)
			_, err := noDigests.solve(in.k)
			t.add("solve without digests", err, checkIf(err, func() int { return orc.checkRows(in.sources, in.rows(), spec.eps) }))
		}

		if spec.staged {
			src := msspSources(rng, n)
			sr, err := runStages(sess, tr, &acc, id, msspEps, src)
			if err == nil && s.wall > 0 {
				construct = append(construct, sr.construct)
				relax = append(relax, sr.relax)
				augment = append(augment, sr.augment)
				shortcuts = append(shortcuts, float64(sr.shortcuts))
				stages := sr.construct.wall + sr.augment + sr.relax.wall
				residual = append(residual, 1-float64(stages)/float64(s.wall))
			}
			t.add("staged solve", err, checkIf(err, func() int { return orc.checkRows(src, sr.rows, spec.eps) }))
		}
		last = time.Since(c0)
	}
	tr.attachPasses(samples)
	if !spec.staged {
		for _, s := range samples {
			var inPasses time.Duration
			for _, p := range s.passDur {
				inPasses += p
			}
			residual = append(residual, 1-float64(inPasses)/float64(s.wall))
		}
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return result{}, err
	}
	traced.close()
	if noDigests != nil {
		noDigests.close()
	}

	plainS := plain.quantile(0.5, time.Second)
	vals := map[string]float64{
		"graph.gen_ms":   median(durations(setup.gen, time.Millisecond)),
		"clique.new_ms":  median(durations(setup.build, time.Millisecond)),
		"clique.live_mb": liveHeapMB(),
		"trace.overhead": overheadRatio(traced.quantile(0.5, time.Second), plainS),
		"trace.residual": median(residual),
	}
	engineLayers(vals, n, samples, plainS*1e9)
	if spec.digests {
		vals["clique.digest_overhead"] = overheadRatio(plainS, noDigests.quantile(0.5, time.Second))
	}
	if spec.staged {
		stageLayers(vals, construct, relax, augment, shortcuts)
	}
	return newResult(perLayer, vals, t), nil
}

// checkIf runs the oracle check only for an operation that completed.
func checkIf(err error, check func() int) int {
	if err != nil {
		return 0
	}
	return check()
}
