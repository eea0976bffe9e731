// Command xmoe-bench regenerates the paper's evaluation artifacts: every
// table and figure of §5 and the appendices, printed as paper-vs-measured
// tables. Run with -list to see experiment names.
//
// Usage:
//
//	xmoe-bench [-experiment all] [-quick] [-seed 42]
//	           [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (everything after flag validation): a CPU profile, and the
// allocation profile since process start.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xmoe/internal/bench"
	"xmoe/internal/moe"
	"xmoe/internal/prof"
	"xmoe/internal/topology"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run (or 'all'); see -list")
	quick := flag.Bool("quick", false, "reduced iteration counts and sweep ranges")
	seed := flag.Uint64("seed", 42, "seed for routing and congestion sampling")
	list := flag.Bool("list", false, "list experiment names and exit")
	chunksFlag := flag.String("chunks", "", "comma-separated chunk counts for the overlap ablations (default 1,2,4,8; the C=1 blocking baseline is always included)")
	engine := flag.String("engine", "analytic", "cost engine for engine-aware experiments ("+bench.EngineSpecs+")")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (since process start) to this file after the experiments")
	flag.Parse()
	if flag.NArg() > 0 {
		// Flag parsing stops at the first argument, so the flags after it
		// would be dropped too.
		fmt.Fprintf(os.Stderr, "xmoe-bench: unexpected argument %q: every option is a flag; to run one experiment, use -experiment %s\n",
			flag.Arg(0), flag.Arg(0))
		os.Exit(2)
	}

	// Validate -engine up front (experiments panic on a bad spec).
	if _, err := bench.NewEngine(topology.Frontier(), 8, *engine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		for _, e := range bench.Experiments {
			fmt.Println(e.Name)
		}
		return
	}

	// Resolve the names before any experiment (or profile) starts, so a
	// typo exits 2 at once instead of after the experiments preceding it.
	selected := bench.Experiments
	if *exp != "all" {
		selected = nil
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			e, ok := lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := bench.Options{Seed: *seed, Quick: *quick, Chunks: chunks, Engine: *engine}
	for _, e := range selected {
		start := time.Now()
		e.Run(os.Stdout, opts)
		fmt.Printf("  [%s completed in %.1fs]\n", e.Name, time.Since(start).Seconds())
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// lookup finds the registered experiment called name.
func lookup(name string) (bench.Experiment, bool) {
	for _, e := range bench.Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return bench.Experiment{}, false
}
