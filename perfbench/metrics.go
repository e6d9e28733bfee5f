package main

import "fmt"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. On the kernel workloads a "query" is one solve, so
// query_p50_ms and query_p95_ms are percentiles of solve latency; on
// serve-mix solve_s and rounds are the server's warm approx-sssp
// kernel run for a single query, read from the responses. The tail is
// p95 because a serve-mix run has about 210 reads: p95 is the highest
// percentile with some ten samples beyond it, where p99 would rest on
// the two slowest.
var endToEnd = []metricDef{
	{"solve_s", "s"},
	{"rounds", "count"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics printed by a traced run. A
// layer the workload does not run reports 0: that is the measured
// amount of work it did there.
var perLayer = []metricDef{
	{"graph.gen_ms", "ms"},
	{"clique.new_ms", "ms"},
	{"clique.passes", "count"},
	{"clique.alloc_mb", "MB"},
	{"clique.live_mb", "MB"},
	{"clique.digest_overhead", "ratio"},
	{"engine.words", "count"},
	{"engine.ns_per_word", "ns"},
	{"engine.us_per_round", "us"},
	{"engine.link_util", "ratio"},
	{"engine.compute_s", "s"},
	{"engine.exchange_s", "s"},
	{"engine.barrier_wait_s", "s"},
	{"matmul.pass_ms_p50", "ms"},
	{"matmul.pass_ms_max", "ms"},
	{"matmul.words_per_pass", "count"},
	{"hopset.construct_s", "s"},
	{"hopset.construct_rounds", "count"},
	{"hopset.augment_ms", "ms"},
	{"hopset.shortcuts", "count"},
	{"algo.relax_s", "s"},
	{"algo.relax_rounds", "count"},
	{"server.approx_p50_ms", "ms"},
	{"server.approx_p99_ms", "ms"},
	{"server.reach_p50_ms", "ms"},
	{"server.reach_p90_ms", "ms"},
	{"server.cold_p50_ms", "ms"},
	{"server.write_p50_ms", "ms"},
	{"server.kernel_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.batch_mean", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"client.late_ms_p99", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.residual", "ratio"},
}

// newResult builds a result carrying exactly the metrics in defs,
// taking each value from vals (absent names report 0). The run is
// correct only when every operation completed and agreed with the
// oracle.
func newResult(defs []metricDef, vals map[string]float64, t tally) result {
	r := result{
		Correct:   t.attempted > 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// tally counts operations and how they went.
type tally struct {
	attempted int
	failed    int // errored, refused or disagreeing with the oracle
}

// add records one operation: err is its execution error, bad its
// count of answers that disagree with the oracle.
func (t *tally) add(what string, err error, bad int) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(logw, "%s failed: %v\n", what, err)
	case bad > 0:
		t.failed++
		fmt.Fprintf(logw, "%s: %d answers disagree with the oracle\n", what, bad)
	}
}

// successRate is the share of attempted operations that neither failed
// nor disagreed with the oracle.
func (t tally) successRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}
