package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/trace"
	"github.com/paper-repo-growth/doryp20/pkg/api"
	"github.com/paper-repo-growth/doryp20/pkg/client"
	"github.com/paper-repo-growth/doryp20/server"
)

// opKind is one kind of serve-mix operation.
type opKind int

const (
	opApprox opKind = iota // approx-sssp on the main graph: the warm hopset-cache path
	opReach                // reachable on the main graph: cached closure, no kernel
	opWrite                // DELETE and re-POST of the second graph
	opCold                 // approx-sssp on the just re-posted graph: new session and hopset
)

var opNames = [...]string{"approx-sssp", "reachable", "write", "cold approx-sssp"}

// Span names of the requests, one per kind.
var opSpans = [...]string{"request.approx", "request.reach", "request.write", "request.cold"}

const (
	mainGraph   = "main"
	secondGraph = "second"
)

// op is one scheduled operation. due is its offset from the start of
// the schedule; latency counts from it, so that a stall also charges
// the wait it imposes on later arrivals.
type op struct {
	kind   opKind
	due    time.Duration
	source int64
}

// schedule draws the open-loop arrivals for a run of length d at rate
// arrivals per second: a fixed count, so that the load does not vary
// with the seed, at uniformly random times (a Poisson process given its
// count), with the kinds in fixed shares in random order. Each write
// is followed by one cold query, issued when the write completes.
func schedule(rng *rand.Rand, n int, rate float64, d time.Duration) []op {
	count := int(math.Round(rate * d.Seconds()))
	if count < 1 {
		count = 1
	}
	writes := int(math.Round(writeShare * float64(count)))
	if writes < 1 && count > 1 {
		writes = 1
	}
	reaches := int(math.Round(reachShare * float64(count)))
	kinds := make([]opKind, count)
	for i := range kinds {
		switch {
		case i < writes:
			kinds[i] = opWrite
		case i < writes+reaches:
			kinds[i] = opReach
		default:
			kinds[i] = opApprox
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	ops := make([]op, count)
	for i := range ops {
		ops[i] = op{kind: kinds[i], due: dues[i], source: rng.Int63n(int64(n))}
	}
	return ops
}

// outcome is what one operation returned, kept for the oracle checks
// that run after the schedule has finished.
type outcome struct {
	op
	sent, done time.Duration // offsets from the schedule start
	err        error
	dist       []int64
	reach      []bool
	info, got  api.GraphInfo // the write's POST response and a GET after it
	prev       uint64        // the second graph's version before the write
	kernel     time.Duration // server-side engine wall time
	rounds     int
	batch      int // approx-sssp: queries in the kernel run that answered it
	cacheHit   bool
}

// latency is the time from due to completion; a failed operation
// counts as missing every latency limit.
func (o outcome) latency() time.Duration {
	if o.err != nil {
		return requestTimeout
	}
	return o.done - o.due
}

// serveEnv is one in-process server on loopback HTTP with its client.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	c      *client.Client

	main, second *graph.CSR
	secondText   []byte
	secondVer    uint64 // guarded by writeMu
	writeMu      sync.Mutex
}

// newServeEnv generates both graphs, starts a server, uploads them and
// warms the main graph's hopset and closure caches. gen is the time
// spent generating the graphs.
func newServeEnv(n int, seedMain, seedSecond int64) (e *serveEnv, gen time.Duration, err error) {
	t := time.Now()
	e = &serveEnv{main: graph.RandomGNP(n, gnpP, seedMain), second: graph.RandomGNP(n, gnpP, seedSecond)}
	gen = time.Since(t)
	var mainText, secondText bytes.Buffer
	if err := graph.WriteEdgeList(&mainText, e.main); err != nil {
		return nil, gen, err
	}
	if err := graph.WriteEdgeList(&secondText, e.second); err != nil {
		return nil, gen, err
	}
	e.secondText = secondText.Bytes()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, gen, err
	}
	e.srv = server.New(server.Options{Workers: serveWorkers, CoalesceWait: serveCoalesceWait})
	e.hs = &http.Server{Handler: e.srv, ReadHeaderTimeout: requestTimeout}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.tr = &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	e.c = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: e.tr}))

	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if _, err = e.c.LoadGraph(ctx, mainGraph, &mainText); err == nil {
		var info api.GraphInfo
		info, err = e.c.LoadGraph(ctx, secondGraph, bytes.NewReader(e.secondText))
		e.secondVer = info.Version
	}
	if err == nil {
		_, err = e.c.ApproxSSSP(ctx, mainGraph, 0, 0)
	}
	if err == nil {
		_, err = e.c.Reachable(ctx, mainGraph, 0)
	}
	if err != nil {
		e.close()
		return nil, gen, fmt.Errorf("serve-mix set-up: %w", err)
	}
	return e, gen, nil
}

// close drains the HTTP server, waits for it to stop, and releases the
// server's sessions and the client's connections.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(logw, "serve-mix shutdown: %v\n", err)
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(logw, "serve-mix server: %v\n", err)
	}
	e.srv.Close()
	e.tr.CloseIdleConnections()
}

func (e *serveEnv) stats() (api.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return e.c.Stats(ctx)
}

// drive runs the schedule as an open loop: every operation starts when
// it is due, whether or not earlier ones have finished, and the
// transport's two connections are the only limit on concurrency. It
// returns every outcome and how late the generator launched each
// operation.
func (e *serveEnv) drive(ops []op, tr tracer) ([]outcome, []time.Duration) {
	res := make([][]outcome, len(ops))
	late := make([]time.Duration, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range ops {
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(start) - o.due
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			res[i] = e.do(start, i, o, tr)
		}(i, o)
	}
	wg.Wait()
	var outs []outcome
	for _, r := range res {
		outs = append(outs, r...)
	}
	return outs, late
}

// do performs one scheduled operation; a write also issues its cold
// query. id ties the operation's spans together.
func (e *serveEnv) do(start time.Time, id int, o op, tr tracer) []outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	since := func() time.Duration { return time.Since(start) }
	out := outcome{op: o, sent: since()}
	switch o.kind {
	case opApprox:
		out = e.approx(ctx, out, mainGraph, since)
	case opReach:
		var r api.ReachableResponse
		r, out.err = e.c.Reachable(ctx, mainGraph, o.source)
		out.done = since()
		out.reach, out.kernel, out.rounds, out.cacheHit = r.Reachable, time.Duration(r.WallNanos), r.Rounds, r.CacheHit
	case opWrite:
		// Writes to the second graph are serialized: two interleaved
		// DELETE/POST pairs would refuse each other.
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		out.sent, out.prev = since(), e.secondVer
		out.err = e.c.DeleteGraph(ctx, secondGraph)
		if out.err == nil {
			out.info, out.err = e.c.LoadGraph(ctx, secondGraph, bytes.NewReader(e.secondText))
		}
		out.done = since()
		tr.span(opSpans[opWrite], id, start.Add(out.sent), out.done-out.sent)
		if out.err == nil {
			e.secondVer = out.info.Version
			out.got, out.err = e.c.GetGraph(ctx, secondGraph)
		}
		cold := outcome{op: op{kind: opCold, due: since(), source: o.source}, sent: since()}
		cold = e.approx(ctx, cold, secondGraph, since)
		tr.span(opSpans[opCold], id, start.Add(cold.sent), cold.done-cold.sent)
		return []outcome{out, cold}
	}
	tr.span(opSpans[o.kind], id, start.Add(out.sent), out.done-out.sent)
	return []outcome{out}
}

func (e *serveEnv) approx(ctx context.Context, out outcome, id string, since func() time.Duration) outcome {
	var r api.ApproxSSSPResponse
	r, out.err = e.c.ApproxSSSP(ctx, id, out.source, 0)
	out.done = since()
	out.dist, out.kernel, out.rounds, out.cacheHit = r.Dist, time.Duration(r.WallNanos), r.Rounds, r.CacheHit
	out.batch = r.BatchSize
	return out
}

// check counts the answers of one outcome that disagree with the
// oracles.
func (e *serveEnv) check(o outcome, mainOrc, secondOrc *oracle) int {
	switch o.kind {
	case opApprox:
		return mainOrc.checkDist(core.NodeID(o.source), o.dist, server.DefaultEps)
	case opCold:
		return secondOrc.checkDist(core.NodeID(o.source), o.dist, server.DefaultEps)
	case opReach:
		return mainOrc.checkReach(core.NodeID(o.source), o.reach)
	case opWrite:
		want := api.GraphInfo{ID: secondGraph, Version: o.info.Version, N: e.second.N, Edges: e.second.NumEdges()}
		if o.info != want || o.got != want || o.info.Version <= o.prev {
			return 1
		}
	}
	return 0
}

// serveRun is the measured outcome of one serve-mix run.
type serveRun struct {
	env              *serveEnv
	setup, gen       []time.Duration
	outs             []outcome
	late             []time.Duration
	queries, kernels uint64 // approx-sssp queries and kernel runs during the schedule
	t                tally
}

// runServeMix sets the server up serveSetupRepeats times, keeping the
// last, drives the seeded schedule for d and checks every answer. The
// caller closes r.env.
func runServeMix(cfg config, rng *rand.Rand, d time.Duration, tr tracer) (*serveRun, error) {
	n := cfg.size(serveN)
	seedMain, seedSecond := rng.Int63(), rng.Int63()
	r := &serveRun{}
	for i := 0; i < serveSetupRepeats; i++ {
		if r.env != nil {
			r.env.close()
			// Collect the discarded set-up so that it does not count
			// toward peak_rss_mb.
			runtime.GC()
		}
		t := time.Now()
		env, gen, err := newServeEnv(n, seedMain, seedSecond)
		if err != nil {
			return nil, err
		}
		r.env = env
		r.setup = append(r.setup, time.Since(t))
		r.gen = append(r.gen, gen)
	}
	ops := schedule(rng, n, cfg.serveRate(), d)
	before, err := r.env.stats()
	if err != nil {
		r.env.close()
		return nil, err
	}
	r.outs, r.late = r.env.drive(ops, tr)
	after, err := r.env.stats()
	if err != nil {
		r.env.close()
		return nil, err
	}
	r.queries = after.Queries["approx-sssp"] - before.Queries["approx-sssp"]
	r.kernels = after.KernelRuns - before.KernelRuns

	mainOrc, secondOrc := newOracle(r.env.main), newOracle(r.env.second)
	for _, o := range r.outs {
		r.t.add(opNames[o.kind], o.err, checkIf(o.err, func() int { return r.env.check(o, mainOrc, secondOrc) }))
	}
	return r, nil
}

// latencies returns the latencies in ms of the outcomes of the given
// kinds.
func (r *serveRun) latencies(kinds ...opKind) []float64 {
	var out []float64
	for _, o := range r.outs {
		for _, k := range kinds {
			if o.kind == k {
				out = append(out, millis(o.latency()))
			}
		}
	}
	return out
}

// warm returns the server-side kernel times (ms), round counts and
// latency minus kernel time (ms, from send) of the successful warm
// approx-sssp queries that ran a kernel themselves, in the smallest
// batches the run had (single queries, unless every run was batched).
// A batch's rounds and kernel time grow with its size, and how often
// queries coalesce depends on how fast the host ran, so mixing sizes
// would let host load move rounds; server.batch_mean reports the
// batching itself.
func (r *serveRun) warm() (kernelMs, rounds, overheadMs []float64) {
	smallest := 0
	for _, o := range r.outs {
		if o.kind == opApprox && o.err == nil && o.kernel > 0 && (smallest == 0 || o.batch < smallest) {
			smallest = o.batch
		}
	}
	for _, o := range r.outs {
		if o.kind != opApprox || o.err != nil || o.kernel == 0 || o.batch != smallest {
			continue
		}
		kernelMs = append(kernelMs, millis(o.kernel))
		rounds = append(rounds, float64(o.rounds))
		overheadMs = append(overheadMs, millis(o.done-o.sent-o.kernel))
	}
	return kernelMs, rounds, overheadMs
}

// batchSize returns the median size of the kernel runs that answered
// the warm approx-sssp queries, from the batch size each response
// reports. A run of b queries returns b responses, so each response
// counts as 1/b of a run. It is 1 when no query reported a batch.
func (r *serveRun) batchSize() int {
	runs := map[int]float64{}
	var total float64
	for _, o := range r.outs {
		if o.kind == opApprox && o.err == nil && o.batch > 0 {
			runs[o.batch] += 1 / float64(o.batch)
			total += 1 / float64(o.batch)
		}
	}
	sizes := make([]int, 0, len(runs))
	for b := range runs {
		sizes = append(sizes, b)
	}
	sort.Ints(sizes)
	var seen float64
	for _, b := range sizes {
		if seen += runs[b]; seen >= total/2 {
			return b
		}
	}
	return 1
}

// runServe is the untraced serve-mix run.
func runServe(cfg config) (result, error) {
	r, err := runServeMix(cfg, rand.New(rand.NewSource(cfg.seed)), cfg.budget, tracer{})
	if err != nil {
		return result{}, err
	}
	defer r.env.close()
	queries := r.latencies(opApprox, opReach, opCold)
	kernelMs, rounds, _ := r.warm()
	fmt.Fprintf(logw, "serve-mix: %d operations, %d reads, %d warm kernel runs\n", r.t.attempted, len(queries), len(kernelMs))
	vals := map[string]float64{
		"solve_s":      median(kernelMs) / 1e3,
		"rounds":       median(rounds),
		"query_p50_ms": quantile(queries, 0.5),
		"query_p95_ms": quantile(queries, 0.95),
		"success_rate": r.t.successRate(),
		"peak_rss_mb":  peakRSSMB(),
		"setup_s":      median(durations(r.setup, time.Second)),
	}
	return newResult(endToEnd, vals, r.t), nil
}

// traceServe is the traced serve-mix run. The first half of the budget
// drives the schedule with a span per request; the second half replays
// the server's kernel path on sessions of the benchmark's own over the
// main graph, which the engine, matmul, hopset and relaxation taps can
// reach: one hopset construction and augment (the cold path), then
// relaxations of as many sources as the server's median warm batch
// (the warm path), alternating traced and untraced.
func traceServe(cfg config) (result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	tr := tracer{trace.NewRecorder(traceCapacity)}
	r, err := runServeMix(cfg, rng, cfg.budget/2, tr)
	if err != nil {
		return result{}, err
	}
	live := liveHeapMB()
	r.env.close()
	g := r.env.main
	t := r.t

	vals := map[string]float64{"clique.live_mb": live}
	approx := r.latencies(opApprox)
	reach := r.latencies(opReach)
	kernelMs, _, overheadMs := r.warm()
	vals["graph.gen_ms"] = median(durations(r.gen, time.Millisecond))
	vals["server.approx_p50_ms"] = quantile(approx, 0.5)
	vals["server.approx_p99_ms"] = quantile(approx, 0.99)
	vals["server.reach_p50_ms"] = quantile(reach, 0.5)
	vals["server.reach_p90_ms"] = quantile(reach, 0.9)
	vals["server.cold_p50_ms"] = median(r.latencies(opCold))
	vals["server.write_p50_ms"] = median(r.latencies(opWrite))
	vals["server.kernel_ms_p50"] = median(kernelMs)
	vals["server.overhead_ms_p50"] = median(overheadMs)
	if r.kernels > 0 {
		vals["server.batch_mean"] = float64(r.queries) / float64(r.kernels)
	}
	var hits, lookups float64
	for _, o := range r.outs {
		if o.kind != opWrite {
			lookups++
			if o.cacheHit {
				hits++
			}
		}
	}
	if lookups > 0 {
		vals["server.cache_hit_ratio"] = hits / lookups
	}
	vals["client.late_ms_p99"] = quantile(durations(r.late, time.Millisecond), 0.99)
	if p50 := quantile(approx, 0.5); p50 > 0 {
		vals["trace.residual"] = 1 - median(kernelMs)/p50
	}

	// Replay of the server's kernel path, on sessions configured as
	// the server's.
	opts := []clique.Option{clique.WithWorkers(serveWorkers)}
	var builds []time.Duration
	var plain *clique.Session
	for i := 0; i < kernelSetupRepeats; i++ {
		if plain != nil {
			plain.Close()
		}
		t0 := time.Now()
		if plain, err = clique.New(g, opts...); err != nil {
			return result{}, err
		}
		builds = append(builds, time.Since(t0))
	}
	defer plain.Close()
	vals["clique.new_ms"] = median(durations(builds, time.Millisecond))
	var acc roundAcc
	traced, err := clique.New(g, tracedOpts(tr.rec, &acc, opts...)...)
	if err != nil {
		return result{}, err
	}
	defer traced.Close()
	orc := newOracle(g)
	id := len(r.outs)
	construct, augment, hs, aug, err := constructStage(traced, tr, &acc, id, server.DefaultEps)
	if err != nil {
		return result{}, err
	}
	batch := r.batchSize()
	fmt.Fprintf(logw, "serve-mix: replaying warm relaxations of %d sources\n", batch)
	var relax []layerSample
	var plainW []time.Duration
	start := time.Now()
	for id++; len(relax) == 0 || time.Since(start) < cfg.budget/2; id++ {
		src := sources(rng, g.N, batch)
		s, rows, err := relaxStage(traced, tr, &acc, id, aug, hs.Beta, src)
		if err == nil {
			relax = append(relax, s)
		}
		t.add("traced relax", err, checkIf(err, func() int { return orc.checkRows(src, rows, server.DefaultEps) }))

		rk := algo.NewRelaxKernel(aug, src, algo.RelaxProducts(hs.Beta, g.N))
		st, err := timedSolve(plain, rk)
		if err == nil {
			plainW = append(plainW, st.wall)
		}
		t.add("relax", err, checkIf(err, func() int { return orc.checkRows(src, rk.Dist(), server.DefaultEps) }))
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return result{}, err
	}
	tr.attachPasses(relax)
	engineLayers(vals, g.N, relax, median(durations(plainW, time.Nanosecond)))
	stageLayers(vals, []layerSample{construct}, relax, []time.Duration{augment}, []float64{float64(hs.Shortcuts.NNZ())})
	var tracedW []time.Duration
	for _, s := range relax {
		tracedW = append(tracedW, s.wall)
	}
	vals["trace.overhead"] = overheadRatio(median(durations(tracedW, time.Second)), median(durations(plainW, time.Second)))
	return newResult(perLayer, vals, t), nil
}
