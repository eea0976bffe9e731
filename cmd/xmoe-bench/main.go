// Command xmoe-bench regenerates the paper's evaluation artifacts: every
// table and figure of §5 and the appendices, printed as paper-vs-measured
// tables. Run with -list to see experiment names.
//
// Usage:
//
//	xmoe-bench [-experiment all] [-quick] [-seed 42] [-json]
//	           [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// With -json, each experiment is additionally run under the Go benchmark
// harness and a machine-readable record (host ns/op, allocs/op, bytes/op,
// plus the experiment's simulated headline metrics such as TFLOPs/GPU) is
// appended to BENCH_results.json, seeding the repository's performance
// trajectory.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (everything between flag validation and the JSON append):
// a CPU profile, and the allocation profile since process start.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"xmoe/internal/bench"
	"xmoe/internal/moe"
	"xmoe/internal/prof"
	"xmoe/internal/topology"
)

var experiments = map[string]func(w io.Writer, opts bench.Options){
	"table1": func(w io.Writer, o bench.Options) { bench.Table1SizeEquivalence(w) },
	"fig3":   func(w io.Writer, o bench.Options) { bench.Figure3MemoryDistribution(w) },
	"fig4":   func(w io.Writer, o bench.Options) { bench.Figure4Redundancy(w, o) },
	"fig9":   func(w io.Writer, o bench.Options) { bench.Figure9MainResults(w, o) },
	"fig10a": func(w io.Writer, o bench.Options) { bench.Figure10aWeakScaling(w, o) },
	"fig10b": func(w io.Writer, o bench.Options) { bench.Figure10bStrongScaling(w, o) },
	"fig11":  func(w io.Writer, o bench.Options) { bench.Figure11LayerBreakdown(w, o) },
	"fig12":  func(w io.Writer, o bench.Options) { bench.Figure12RBDBreakdown(w, o) },
	"table4": func(w io.Writer, o bench.Options) { bench.Table4ActivationMemory(w) },
	"fig13":  func(w io.Writer, o bench.Options) { bench.Figure13SSMBMemory(w) },
	"fig14":  func(w io.Writer, o bench.Options) { bench.Figure14SSMBvsCkpt(w, o) },
	"table5": func(w io.Writer, o bench.Options) { bench.Table5CrossPlatform(w, o) },
	"fig15":  func(w io.Writer, o bench.Options) { bench.Figure15LossValidation(w, o) },
	"fig17":  func(w io.Writer, o bench.Options) { bench.Figure17AdvantageRegions(w) },
	"fig18":  func(w io.Writer, o bench.Options) { bench.Figure18AlltoAllScaling(w, o) },
	"fig20":  func(w io.Writer, o bench.Options) { bench.Figure20DepthTopK(w, o) },
	"appc1":  func(w io.Writer, o bench.Options) { bench.AppendixC1Placement(w) },
	// Ablations beyond the paper's figures (design choices of §4).
	"abl-pilot":        func(w io.Writer, o bench.Options) { bench.AblationPilotSelection(w, o) },
	"abl-capacity":     func(w io.Writer, o bench.Options) { bench.AblationCapacityFactor(w, o) },
	"abl-rbd-ep":       func(w io.Writer, o bench.Options) { bench.AblationRBDByEPSize(w, o) },
	"abl-overlap":      func(w io.Writer, o bench.Options) { bench.AblationOverlap(w, o) },
	"abl-overlap-bwd":  func(w io.Writer, o bench.Options) { bench.AblationOverlapBackward(w, o) },
	"abl-faults":       func(w io.Writer, o bench.Options) { bench.AblationFaults(w, o) },
	"abl-engine-delta": func(w io.Writer, o bench.Options) { bench.AblationEngineDelta(w, o) },
	"abl-zero":         func(w io.Writer, o bench.Options) { bench.AblationZeRO(w, o) },
}

// order fixes the presentation sequence for -experiment all.
var order = []string{
	"table1", "fig3", "fig4", "fig9", "fig10a", "fig10b", "fig11", "fig12",
	"table4", "fig13", "fig14", "table5", "fig15", "fig17", "fig18", "fig20", "appc1",
	"abl-pilot", "abl-capacity", "abl-rbd-ep", "abl-overlap", "abl-overlap-bwd",
	"abl-faults", "abl-engine-delta", "abl-zero",
}

const jsonPath = "BENCH_results.json"

func main() {
	exp := flag.String("experiment", "all", "experiment to run (or 'all'); see -list")
	quick := flag.Bool("quick", false, "reduced iteration counts and sweep ranges")
	seed := flag.Uint64("seed", 42, "seed for routing and congestion sampling")
	list := flag.Bool("list", false, "list experiment names and exit")
	jsonOut := flag.Bool("json", false, "benchmark each experiment and append machine-readable results to "+jsonPath)
	chunksFlag := flag.String("chunks", "", "comma-separated chunk counts for the overlap ablations (default 1,2,4,8; the C=1 blocking baseline is always included)")
	engine := flag.String("engine", "analytic", "cost engine for engine-aware experiments ("+bench.EngineSpecs+")")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (since process start) to this file after the experiments")
	flag.Parse()

	// Validate -engine up front (experiments panic on a bad spec).
	if _, err := bench.NewEngine(topology.Frontier(), 8, *engine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engineName := *engine
	if engineName == "" {
		engineName = "analytic"
	}

	// Validate the flag-derived overlap options up front so the user sees
	// the descriptive PipelineOpts.Check error, not a rank panic.
	var chunks []int
	if *chunksFlag != "" {
		for _, tok := range strings.Split(*chunksFlag, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(os.Stderr, "invalid -chunks entry %q: %v\n", tok, err)
				os.Exit(2)
			}
			if err := (moe.PipelineOpts{OverlapChunks: c}).Check(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			chunks = append(chunks, c)
		}
	}

	if *list {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	// Resolve the names before any experiment (or profile) starts, so a
	// typo exits 2 at once instead of after the experiments preceding it.
	names := order
	if *exp != "all" {
		names = strings.Split(*exp, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if _, ok := experiments[names[i]]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", names[i])
				os.Exit(2)
			}
		}
	}

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := bench.Options{Seed: *seed, Quick: *quick, Chunks: chunks, Engine: *engine}
	var records []bench.Record
	run := func(name string) {
		fn := experiments[name]
		start := time.Now()
		fn(os.Stdout, opts)
		fmt.Printf("  [%s completed in %.1fs]\n", name, time.Since(start).Seconds())
		if *jsonOut {
			bench.DrainMetrics() // keep only the benchmarked run's metrics
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn(io.Discard, opts)
				}
			})
			records = append(records, bench.Record{
				Experiment:  name,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				Simulated:   bench.DrainMetrics(),
				Engine:      engineName,
				Quick:       *quick,
				Seed:        *seed,
				Timestamp:   start.UTC().Format(time.RFC3339),
			})
		}
	}

	for _, name := range names {
		run(name)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := bench.AppendResults(jsonPath, records); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("  [wrote %d records to %s]\n", len(records), jsonPath)
	}
}
