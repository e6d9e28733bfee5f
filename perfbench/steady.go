package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkDef is the slice of BENCHMARK.json the steadiness mode
// reads: each end-to-end metric's bound.
type benchmarkDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// lastResult parses the JSON result on the last line of out.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("parsing result line: %w", err)
	}
	return r, nil
}

// steadiness runs one workload k times, each in its own process with
// the next seed, the way the benchmark is judged, and prints for each
// end-to-end metric the median, the quartiles, and the spread (the
// interquartile distance as a share of the median) against the
// metric's bound and a third of it. Each run's line also shows the
// share of the machine's CPU time the hypervisor stole during it, so
// that a slow stretch of the host can be told from a slow program. It
// returns 1 when a run failed or a spread exceeds its bound.
func steadiness(w io.Writer, k int, defPath, workload string, seed int64, secs float64) int {
	raw, err := os.ReadFile(defPath)
	if err != nil {
		fmt.Fprintf(logw, "perfbench: %v\n", err)
		return 2
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(logw, "perfbench: %s: %v\n", defPath, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(logw, "perfbench: %v\n", err)
		return 2
	}
	values := map[string][]float64{}
	var steals []float64
	status := 0
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0")
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, logw
		total0, steal0, ok0 := cpuTicks()
		runErr := cmd.Run()
		total1, steal1, ok1 := cpuTicks()
		r, err := lastResult(stdout.Bytes())
		if runErr != nil || err != nil || !r.Correct {
			fmt.Fprintf(logw, "perfbench: seed %d: run failed: %v %v\n", s, runErr, err)
			status = 1
			continue
		}
		steal := "unknown"
		if ok0 && ok1 && total1 > total0 {
			share := float64(steal1-steal0) / float64(total1-total0)
			steals = append(steals, share)
			steal = fmt.Sprintf("%.1f%%", 100*share)
		}
		fmt.Fprintf(w, "seed %d (host steal %s): %s", s, steal, stdout.String())
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Fprintf(w, "%-14s %12s %12s %12s %8s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound", "ok")
	for _, m := range def.EndToEnd {
		xs := values[m.Name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict := "yes"
		switch {
		case spread > m.Bound:
			verdict = "NO"
			status = 1
		case spread > m.Bound/3:
			verdict = "loose"
		}
		fmt.Fprintf(w, "%-14s %12.6g %12.6g %12.6g %8.4f %8.4f %8s\n", m.Name, med, q1, q3, spread, m.Bound, verdict)
	}
	if len(steals) > 0 {
		fmt.Fprintf(w, "host steal: median %.1f%%, max %.1f%% of CPU time\n", 100*median(steals), 100*quantile(steals, 1))
	}
	return status
}
