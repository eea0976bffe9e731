// Command benchmark is the repository's benchmark: five workloads that
// drive the simulator through its public functions (see api.go), ten
// end-to-end metrics that keep host cost and simulated result apart, and a
// per-layer ladder measured from outside the program. README.md has the
// metric-interaction table and the baseline numbers.
//
//	go run ./benchmark --workload step_sweep --seed 42 --seconds 15 --trace 0
//	go run ./benchmark                       # every workload, untraced + traced
//	go run ./benchmark -repeat 2             # the whole set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name       = flag.String("workload", "", "workload to run in this process (default: all, one child process each)")
		seed       = flag.Uint64("seed", 42, "seed every generated input derives from")
		seconds    = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace      = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics, tracing off")
		ops        = flag.Int("ops", 0, "run exactly this many operations per pass instead of measuring for -seconds")
		repeat     = flag.Int("repeat", 1, "with no -workload: run the whole set this many times and compare the sets")
		outDir     = flag.String("out", "benchmark/out", "directory for trace JSON, per-layer tables and results.json")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the untraced timed loop (not set-up, not the reference pass) to this file")
		printMan   = flag.Bool("manifest", false, "print BENCHMARK.json as this code defines it, and exit")
	)
	flag.Parse()
	if *printMan {
		fmt.Println(string(manifestJSON()))
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds <= 0 || *ops < 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be > 0, -ops >= 0, -repeat >= 1, -trace 0 or 1")
		return 2
	}

	if *name == "" {
		return runSuite(suiteConfig{seed: *seed, seconds: *seconds, ops: *ops, repeat: *repeat, outDir: *outDir})
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	res, err := run(runConfig{workload: w, seed: *seed, seconds: *seconds, ops: *ops, trace: *trace == 1, outDir: *outDir, cpuProfile: *cpuprofile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printResult(w, *seed, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// manifestJSON renders BENCHMARK.json from the tables in metrics.go and
// workloads.go; a test keeps the checked-in file equal to it.
func manifestJSON() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEndEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []endToEndEntry `json:"end_to_end"`
		PerLayer   []perLayerEntry `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, endToEndEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerEntry{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers: cannot fail
	}
	return out
}

// printResult prints every metric by name with its unit, the sample count
// and the digest, then the contract's JSON object as the last line.
func printResult(w workload, seed uint64, res result) {
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  %s  samples %d  sim_digest %s\n",
		w.name, seed, runtime.GOMAXPROCS(0), runtime.Version(), res.samples, res.simDigest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite metric value can get here; report it as a
		// failed run, not as a result.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
