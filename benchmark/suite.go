package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"
)

// The suite is what `go run ./benchmark` does with no -workload: every
// workload in its own fresh child process (so netsim's process-global cost
// memo, perfmodel's GEMM memo, tensor.Pool arenas and the RSS high-water
// mark of one workload never reach the next), first untraced, then traced.

type suiteConfig struct {
	seed    uint64
	seconds float64
	ops     int
	repeat  int
	outDir  string
}

// provenance is the header BENCH_results.json never had: without it a
// number cannot be attributed to a commit or a host.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops,omitempty"`
	Started    string  `json:"started"`
}

// childRun is one child process's report.
type childRun struct {
	Workload  string `json:"workload"`
	Trace     int    `json:"trace"`
	SimDigest string `json:"sim_digest"`
	result
}

// comparison is one end-to-end metric of one workload across two sets.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// WorsePct is how much worse the second set is, in the metric's own
	// direction, as a percentage of the first (negative: better).
	WorsePct    float64 `json:"worse_pct"`
	BoundPct    float64 `json:"bound_pct"`
	InsideBound bool    `json:"inside_bound"`
}

func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

var digestRE = regexp.MustCompile(`sim_digest ([0-9a-f]{16})`)

// runChild runs one workload in a child process, passes its output through
// and parses the contract line.
func runChild(exe string, cfg suiteConfig, w workload, trace int) (childRun, error) {
	args := []string{
		"--workload", w.name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", fmt.Sprint(trace), "--ops", fmt.Sprint(cfg.ops), "--out", cfg.outDir,
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to end

	cr := childRun{Workload: w.name, Trace: trace}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.result); err != nil {
		if runErr != nil {
			return cr, fmt.Errorf("%s (trace %d): %w", w.name, trace, runErr)
		}
		return cr, fmt.Errorf("%s (trace %d): no result line: %w", w.name, trace, err)
	}
	if m := digestRE.FindStringSubmatch(stdout.String()); m != nil {
		cr.SimDigest = m[1]
	}
	return cr, nil
}

func runSuite(cfg suiteConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	prov := provenance{Commit: commitHash(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: min(pinnedProcs, runtime.NumCPU()), Seed: cfg.seed, Seconds: cfg.seconds, Ops: cfg.ops,
		Started: time.Now().UTC().Format(time.RFC3339)}
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d\n",
		prov.Commit, prov.GoVersion, prov.NProc, prov.GOMAXPROCS, prov.Seed)

	failed := false
	var sets [][]childRun
	for rep := 0; rep < cfg.repeat; rep++ {
		var set []childRun
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cr, err := runChild(exe, cfg, w, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					failed = true
					continue
				}
				failed = failed || !cr.Correct
				set = append(set, cr)
			}
		}
		sets = append(sets, set)
	}

	var cmp []comparison
	if len(sets) >= 2 {
		cmp = compareSets(sets[0], sets[1])
		printComparison(cmp)
	}
	if err := writeResults(cfg.outDir, prov, sets, cmp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// compareSets lines up the untraced runs of two sets.
func compareSets(first, second []childRun) []comparison {
	find := func(set []childRun, name string) *childRun {
		for i := range set {
			if set[i].Workload == name && set[i].Trace == 0 {
				return &set[i]
			}
		}
		return nil
	}
	var out []comparison
	for _, w := range workloads {
		a, b := find(first, w.name), find(second, w.name)
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			out = append(out, compare(w.name, d, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value))
		}
		if a.SimDigest != b.SimDigest {
			fmt.Printf("sim_digest of %s differs between sets: %s vs %s\n", w.name, a.SimDigest, b.SimDigest)
		}
	}
	return out
}

// compare states how much worse second is than first for one metric.
func compare(workload string, d metricDef, first, second float64) comparison {
	worse := (second - first) / first
	if d.Better == higher {
		worse = (first - second) / first
	}
	return comparison{Workload: workload, Metric: d.Name, First: first, Second: second,
		WorsePct: worse * 100, BoundPct: d.Bound * 100, InsideBound: worse <= d.Bound}
}

func printComparison(cmp []comparison) {
	fmt.Printf("\n%-15s %-20s %14s %14s %9s %8s  %s\n", "workload", "metric", "first", "second", "worse%", "bound%", "inside")
	for _, c := range cmp {
		fmt.Printf("%-15s %-20s %14.6g %14.6g %+9.3f %8.3g  %v\n",
			c.Workload, c.Metric, c.First, c.Second, c.WorsePct, c.BoundPct, c.InsideBound)
	}
}

func writeResults(dir string, prov provenance, sets [][]childRun, cmp []comparison) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance   `json:"provenance"`
		Sets       [][]childRun `json:"sets"`
		Comparison []comparison `json:"comparison,omitempty"`
	}{prov, sets, cmp}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	return nil
}
