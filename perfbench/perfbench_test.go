package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/api"
)

func init() { logw = io.Discard }

// tiny returns a configuration small enough for a unit test.
func tiny(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 7, budget: 300 * time.Millisecond, trace: traced,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), n: 16, rate: 40,
	}
}

func names(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, w, traced)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, name, m, unit)
				}
			}
			if !traced {
				for _, name := range []string{"solve_s", "rounds", "query_p50_ms", "query_p95_ms", "success_rate", "peak_rss_mb", "setup_s"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no Chrome trace written: %v", w, err)
			}
		}
	}
}

func TestRoundsRepeatExactly(t *testing.T) {
	for _, w := range []string{"mssp", "apsp-square"} {
		a, err := runWorkload(tiny(t, w, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(tiny(t, w, false))
		if err != nil {
			t.Fatal(err)
		}
		if ra, rb := a.Metrics["rounds"].Value, b.Metrics["rounds"].Value; ra != rb || ra <= 0 {
			t.Errorf("%s: rounds %v then %v", w, ra, rb)
		}
	}
}

func TestCorruptedAnswerIsAFailure(t *testing.T) {
	g := graph.RandomGNP(24, 0.2, 3)
	orc := newOracle(g)
	src := []core.NodeID{0, 5}
	rows := [][]int64{algo.BFSRef(g, 0), algo.BFSRef(g, 5)}
	if bad := orc.checkRows(src, rows, 0); bad != 0 {
		t.Fatalf("exact answer flagged: %d", bad)
	}
	// An answer inside the (1+ε) bracket passes; one beyond it fails.
	far := 0
	for v, d := range rows[1] {
		if d > rows[1][far] {
			far = v
		}
	}
	rows[1][far] += 1
	if bad := orc.checkRows(src, rows, 1); bad != 0 {
		t.Errorf("answer within (1+ε) flagged: %d", bad)
	}
	rows[1][far] *= 4
	var tl tally
	tl.add("solve", nil, orc.checkRows(src, rows, 0.25))
	res := newResult(endToEnd, map[string]float64{}, tl)
	if tl.failed != 1 || res.Correct || res.Failed != 1 || tl.successRate() != 0 {
		t.Errorf("corrupted distance: failed=%d correct=%v success=%v", tl.failed, res.Correct, tl.successRate())
	}

	reach := algo.ClosureRef(g, 0)
	if orc.checkReach(0, reach) != 0 {
		t.Fatal("exact reachability flagged")
	}
	reach[far] = !reach[far]
	if orc.checkReach(0, reach) == 0 {
		t.Error("corrupted reachability not flagged")
	}

	e := &serveEnv{second: g}
	good := api.GraphInfo{ID: secondGraph, Version: 9, N: g.N, Edges: g.NumEdges()}
	w := outcome{op: op{kind: opWrite}, info: good, got: good, prev: 8}
	if e.check(w, orc, orc) != 0 {
		t.Fatal("correct write flagged")
	}
	w.got.Edges++
	if e.check(w, orc, orc) == 0 {
		t.Error("wrong GraphInfo after a write not flagged")
	}
}

func TestScheduleIsSeededWithFixedShares(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(5)), 128, 12, 30*time.Second)
	b := schedule(rand.New(rand.NewSource(5)), 128, 12, 30*time.Second)
	if len(a) != 360 || len(a) != len(b) {
		t.Fatalf("%d and %d arrivals, want 360", len(a), len(b))
	}
	count := map[opKind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		count[a[i].kind]++
	}
	if count[opWrite] != 29 || count[opReach] != 90 || count[opApprox] != 241 {
		t.Errorf("kind counts %v", count)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Error("arrivals not in due order")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{5, 1}, 0, 6},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestDefinitionMatchesProgram keeps BENCHMARK.json and definition.json
// in step with the metrics and parameters the program uses.
func TestDefinitionMatchesProgram(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program has %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}

	var def struct {
		DefaultSeed int64   `json:"default_seed"`
		HeldOutSeed int64   `json:"held_out_seed"`
		EdgeProb    float64 `json:"edge_probability"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		Workloads   []struct {
			Name         string   `json:"name"`
			N            int      `json:"n"`
			Workers      int      `json:"engine_workers"`
			Eps          float64  `json:"eps"`
			Digests      bool     `json:"digests"`
			RatePerS     float64  `json:"rate_per_s"`
			Connections  int      `json:"connections"`
			CoalesceMs   float64  `json:"coalesce_wait_ms"`
			EndToEndUsed []string `json:"end_to_end"`
		} `json:"workloads"`
		Layers []struct {
			Metric string `json:"metric"`
		} `json:"layers"`
	}
	readJSON(t, "definition.json", &def)
	if def.DefaultSeed != defaultSeed || def.HeldOutSeed == defaultSeed || def.EdgeProb != gnpP || def.GOMAXPROCS != maxProcs {
		t.Errorf("definition.json seeds/p/procs %d %d %v %d disagree with the program", def.DefaultSeed, def.HeldOutSeed, def.EdgeProb, def.GOMAXPROCS)
	}
	want := map[string]struct {
		n, workers int
		eps        float64
		digests    bool
		rate       float64
		conns      int
		coalesceMs float64
	}{
		"mssp":        {msspN, maxProcs, msspEps, true, 0, 0, 0},
		"apsp-square": {apspN, maxProcs, 0, false, 0, 0, 0},
		"serve-mix":   {serveN, serveWorkers, msspEps, false, serveRate, serveConns, millis(serveCoalesceWait)},
	}
	for _, w := range def.Workloads {
		x := want[w.Name]
		if w.N != x.n || w.Workers != x.workers || w.Eps != x.eps || w.Digests != x.digests || w.RatePerS != x.rate || w.Connections != x.conns || w.CoalesceMs != x.coalesceMs {
			t.Errorf("definition.json workload %+v disagrees with the program %+v", w, x)
		}
		if len(w.EndToEndUsed) != len(endToEnd) {
			t.Errorf("%s: definition.json lists %d end-to-end metrics, the program prints %d", w.Name, len(w.EndToEndUsed), len(endToEnd))
		}
	}
	layers := names(perLayer)
	for _, l := range def.Layers {
		if _, ok := layers[l.Metric]; !ok {
			t.Errorf("definition.json maps unknown metric %s", l.Metric)
		}
		delete(layers, l.Metric)
	}
	if len(layers) > 0 {
		t.Errorf("per-layer metrics missing from the definition.json map: %v", layers)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestCPUTicks(t *testing.T) {
	total, steal, ok := cpuTicks()
	if !ok {
		t.Skip("no /proc/stat")
	}
	if total == 0 || steal > total {
		t.Errorf("cpuTicks = %d total, %d stolen", total, steal)
	}
}
