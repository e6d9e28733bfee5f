package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// solveInput is one solve of a kernel workload: the kernel to run, the
// sources whose rows it answers, and how to read those rows after the
// run.
type solveInput struct {
	k       clique.Kernel
	sources []core.NodeID
	rows    func() [][]int64
}

// kernelSpec defines a workload that runs one kernel per solve on a
// warm session.
type kernelSpec struct {
	n       int
	digests bool    // session WithDigests, as ccbench -kernel runs it
	eps     float64 // oracle tolerance: 0 demands bit-identity
	// staged workloads also run the kernel's stages one by one in the
	// traced run (hopset construction, augment, relaxation).
	staged   bool
	newSolve func(rng *rand.Rand, n int) solveInput
}

// msspSpec: (1+ε)-MSSP from ⌈√n⌉ seeded sources, the paper's problem.
var msspSpec = kernelSpec{
	n: msspN, digests: true, eps: msspEps, staged: true,
	newSolve: func(rng *rand.Rand, n int) solveInput {
		src := msspSources(rng, n)
		k := algo.NewApproxKSourceKernel(src, hopset.Params{Eps: msspEps})
		return solveInput{k: k, sources: src, rows: k.Dist}
	},
}

// apspSpec: exact APSP by repeated (min,+) squaring, the baseline the
// paper improves on.
var apspSpec = kernelSpec{
	n: apspN,
	newSolve: func(_ *rand.Rand, n int) solveInput {
		src := make([]core.NodeID, n)
		for v := range src {
			src[v] = core.NodeID(v)
		}
		k := algo.NewAPSPKernel()
		return solveInput{k: k, sources: src, rows: k.Dist}
	},
}

// msspSources draws ⌈√n⌉ distinct sources.
func msspSources(rng *rand.Rand, n int) []core.NodeID {
	return sources(rng, n, int(math.Ceil(math.Sqrt(float64(n)))))
}

// sources draws k distinct vertices of [0, n).
func sources(rng *rand.Rand, n, k int) []core.NodeID {
	perm := rng.Perm(n)
	src := make([]core.NodeID, k)
	for i := range src {
		src[i] = core.NodeID(perm[i])
	}
	return src
}

func (s kernelSpec) sessionOpts() []clique.Option {
	if s.digests {
		return []clique.Option{clique.WithDigests()}
	}
	return nil
}

// setupTimes are the durations of each repeated set-up.
type setupTimes struct {
	gen, build, total []time.Duration
}

// setupSessions generates the graph and builds its session repeats
// times, closing each, so that set-up time is a median rather than one
// noisy sample. It then builds the run's rotation of sessionsPerRun
// sessions back to back, apart from the timed set-ups, so that how
// many set-ups are timed does not change where the rotation's sessions
// land in memory (see rotation).
func setupSessions(n int, seed int64, repeats int, opts ...clique.Option) (*graph.CSR, *rotation, setupTimes, error) {
	var st setupTimes
	var g *graph.CSR
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		g = graph.RandomGNP(n, gnpP, seed)
		t1 := time.Now()
		sess, err := clique.New(g, opts...)
		if err != nil {
			return nil, nil, st, fmt.Errorf("building session: %w", err)
		}
		t2 := time.Now()
		sess.Close()
		st.gen = append(st.gen, t1.Sub(t0))
		st.build = append(st.build, t2.Sub(t1))
		st.total = append(st.total, t2.Sub(t0))
	}
	rot, err := newRotation(g, opts...)
	if err != nil {
		return nil, nil, st, fmt.Errorf("building session: %w", err)
	}
	return g, rot, st, nil
}

// newRotation builds sessionsPerRun sessions over g back to back.
func newRotation(g *graph.CSR, opts ...clique.Option) (*rotation, error) {
	rot := &rotation{walls: make([][]time.Duration, sessionsPerRun)}
	for i := 0; i < sessionsPerRun; i++ {
		sess, err := clique.New(g, opts...)
		if err != nil {
			rot.close()
			return nil, err
		}
		rot.sess = append(rot.sess, sess)
	}
	return rot, nil
}

// rotation is a set of warm sessions over one graph that a run spreads
// its solves over, one after the other. With two engine workers, where
// the allocator places each worker's hot state decides whether the
// workers share cache lines, and that changes a solve's time by up to
// 1.8x for the whole life of a session; sessions built back to back
// land on both sides. A single session would make every run a coin
// toss, so timings are taken per session and averaged over the
// rotation. For apsp-square, sessions built back to back alternate
// between a fast and a slow layout; for mssp the layouts vary more
// and do not alternate strictly, so the rotation is as large as the
// number of solves in a run allows.
type rotation struct {
	sess  []*clique.Session
	walls [][]time.Duration // per session, successful solves only
	next  int
}

// session returns the session the next solve runs on and advances.
func (r *rotation) session() (*clique.Session, int) {
	i := r.next
	r.next = (r.next + 1) % len(r.sess)
	return r.sess[i], i
}

// solve runs k on the next session and records its wall time.
func (r *rotation) solve(k clique.Kernel) (solveStats, error) {
	sess, i := r.session()
	st, err := timedSolve(sess, k)
	if err == nil {
		r.walls[i] = append(r.walls[i], st.wall)
	}
	return st, err
}

// quantile returns the q-quantile of each session's solve times in
// unit, averaged over the sessions that completed a solve.
func (r *rotation) quantile(q float64, unit time.Duration) float64 {
	sum, k := 0.0, 0
	for _, w := range r.walls {
		if len(w) > 0 {
			sum += quantile(durations(w, unit), q)
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

func (r *rotation) close() {
	for _, s := range r.sess {
		s.Close()
	}
}

// solveStats is what one solve cost, from the session's accounting.
type solveStats struct {
	wall   time.Duration
	rounds int
	passes int
	words  uint64
}

// timedSolve runs k on sess and reports its wall time and the session
// stats it added.
func timedSolve(sess *clique.Session, k clique.Kernel) (solveStats, error) {
	before := sess.Stats()
	t := time.Now()
	err := sess.Run(context.Background(), k)
	wall := time.Since(t)
	after := sess.Stats()
	return solveStats{
		wall:   wall,
		rounds: after.Engine.Rounds - before.Engine.Rounds,
		passes: after.Runs - before.Runs,
		words:  after.Engine.TotalMsgs - before.Engine.TotalMsgs,
	}, err
}

// more reports whether another operation that takes about as long as
// the last one still fits in the budget.
func more(start time.Time, budget, last time.Duration) bool {
	return time.Since(start)+last <= budget
}

// runKernel is the untraced run of a kernel workload: solves on warm
// sessions until the budget is spent, each checked against the oracle
// outside its timed region.
func runKernel(cfg config, spec kernelSpec) (result, error) {
	n := cfg.size(spec.n)
	rng := rand.New(rand.NewSource(cfg.seed))
	g, rot, setup, err := setupSessions(n, rng.Int63(), kernelSetupRepeats, spec.sessionOpts()...)
	if err != nil {
		return result{}, err
	}
	defer rot.close()
	orc := newOracle(g)

	var t tally
	var rounds []float64
	var last time.Duration
	start := time.Now()
	for t.attempted == 0 || more(start, cfg.budget, last) {
		in := spec.newSolve(rng, n)
		st, err := rot.solve(in.k)
		last = st.wall
		bad := 0
		if err == nil {
			bad = orc.checkRows(in.sources, in.rows(), spec.eps)
			rounds = append(rounds, float64(st.rounds))
		}
		t.add("solve", err, bad)
	}
	fmt.Fprintf(logw, "%s: %d solves over %d sessions\n", cfg.workload, t.attempted, len(rot.sess))
	vals := map[string]float64{
		"solve_s":      rot.quantile(0.5, time.Second),
		"rounds":       median(rounds),
		"query_p50_ms": rot.quantile(0.5, time.Millisecond),
		"query_p95_ms": rot.quantile(0.95, time.Millisecond),
		"success_rate": t.successRate(),
		"peak_rss_mb":  peakRSSMB(),
		"setup_s":      median(durations(setup.total, time.Second)),
	}
	return newResult(endToEnd, vals, t), nil
}
