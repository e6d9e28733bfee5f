// Command perfbench is the repository's benchmark: it drives three
// workloads through the public APIs (clique sessions, the hopset and
// shortest-path kernels, the ccserve server and its Go client), checks
// every answer against a sequential oracle, and prints one JSON object
// with the metrics as its last line of output.
//
// Usage:
//
//	perfbench --workload mssp|apsp-square|serve-mix --seed N --seconds S --trace 0|1
//	perfbench --workload W --seed N --seconds S --steady K
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics and writes a Chrome trace that
// tools/tracestat reads. --steady K runs the workload K times with
// seeds N, N+1, ... in child processes and prints each end-to-end
// metric's median, quartiles and spread against its bound in
// BENCHMARK.json. The workloads, their parameters and the map from
// layer metrics to end-to-end metrics are recorded in definition.json.
// run.sh builds the program from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Workload parameters. definition.json records the same values; a test
// keeps the two in step.
const (
	gnpP    = 0.05 // edge probability of every G(n,p) graph
	msspN   = 256
	msspEps = 0.25
	apspN   = 160
	serveN  = 128
	// serveRate is the serve-mix arrival rate, about a quarter of what
	// the reference host sustains on the mix. At half (12/s) the open
	// loop queued enough that a host slowed by another load stretched
	// the median read latency about twice and its p99 about three times
	// as much as the warm kernel time itself.
	serveRate  = 6.0
	serveConns = 2
	// serveWorkers is the server's engine workers per session
	// (ccserve -workers). The server builds a graph's session inside
	// a request handler, so with two workers whether their hot state
	// shares cache lines (see rotation) is decided once per run and
	// moves every serve-mix latency by up to 1.6x; with one worker per
	// session the two CPUs serve concurrent sessions instead. mssp and
	// apsp-square measure the two-worker engine.
	serveWorkers = 1
	// serveCoalesceWait is the server's admission window
	// (ccserve -coalesce-wait, default 2ms), passed explicitly because
	// server.Options keeps a zero window.
	serveCoalesceWait = 2 * time.Millisecond
	reachShare        = 0.25 // share of arrivals that are reachable queries
	// writeShare is the share of arrivals that are writes, each
	// followed by a cold query, the slowest kind of read. At 8% a 35 s
	// run holds about 17 cold queries among some 210 reads, so
	// query_p95_ms, with about ten reads beyond it, falls inside the
	// cold population.
	writeShare = 0.08

	// Set-up is repeated and its median reported, because a single
	// graph generation and session build takes about a millisecond.
	kernelSetupRepeats = 101
	serveSetupRepeats  = 5
	// sessionsPerRun warm sessions share a kernel workload's solves;
	// see rotation. A 35 s run makes about 11 mssp and 16 apsp-square
	// solves, so most sessions get one or two. With 4 sessions the
	// mssp solve_s of 10 seeds spread 0.16 on a quiet host.
	sessionsPerRun = 12

	requestTimeout = 30 * time.Second
	traceCapacity  = 1 << 17 // spans; a traced run stays well inside it
	maxProcs       = 2
	defaultSeed    = 1
)

// logw receives progress and diagnostics; stdout carries only the
// result.
var logw io.Writer = os.Stderr

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	traceOut string
	// n and rate replace the workload's clique size and arrival rate
	// when non-zero; the tests shrink them.
	n    int
	rate float64
}

func (c config) size(n int) int {
	if c.n > 0 {
		return c.n
	}
	return n
}

func (c config) serveRate() float64 {
	if c.rate > 0 {
		return c.rate
	}
	return serveRate
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, traced func(config) (result, error) }{
	"mssp": {
		run:    func(c config) (result, error) { return runKernel(c, msspSpec) },
		traced: func(c config) (result, error) { return traceKernel(c, msspSpec) },
	},
	"apsp-square": {
		run:    func(c config) (result, error) { return runKernel(c, apspSpec) },
		traced: func(c config) (result, error) { return traceKernel(c, apspSpec) },
	},
	"serve-mix": {run: runServe, traced: traceServe},
}

// runWorkload runs cfg's workload once.
func runWorkload(cfg config) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		return w.traced(cfg)
	}
	return w.run(cfg)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the testable body of main: 0 when every answer was correct,
// 1 when some operation failed, 2 on a usage or set-up error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(logw)
	workload := fs.String("workload", "", "workload: mssp, apsp-square or serve-mix")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	secs := fs.Float64("seconds", 10, "measured time of one run")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	steady := fs.Int("steady", 0, "run the workload this many times with consecutive seeds and report each metric's spread")
	benchJSON := fs.String("benchmark-json", "BENCHMARK.json", "benchmark definition holding the bounds --steady compares against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs <= 0 || (*traced != 0 && *traced != 1) || *steady < 0 {
		fmt.Fprintln(logw, "perfbench: invalid arguments")
		fs.Usage()
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(logw, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *steady > 0 {
		return steadiness(stdout, *steady, *benchJSON, *workload, *seed, *secs)
	}
	if runtime.NumCPU() >= maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *traced == 1, traceOut: *traceOut,
		budget: time.Duration(*secs * float64(time.Second)),
	}
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.json", cfg.workload, cfg.seed)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(logw, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(logw, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
