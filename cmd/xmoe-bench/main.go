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
// allocation profile since process start. -chunks and -engine are read by
// the overlap ablations only (bench.OptionReaders); setting either without
// selecting one of them exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
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

	// Resolve the names and validate the flags before any experiment (or
	// profile) starts, so a typo exits 2 at once instead of after the
	// experiments preceding it.
	selected := bench.Experiments
	if *exp != "all" {
		selected = nil
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(bench.Experiments, func(e bench.Experiment) bool { return e.Name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, bench.Experiments[i])
		}
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	chunks, err := parseChunks(*chunksFlag)
	if err == nil {
		err = checkOptionFlags(selected, set)
	}
	if err == nil {
		_, err = bench.NewEngine(topology.Frontier(), 8, *engine) // experiments panic on a bad spec
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e.Name)
		}
		return
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

// parseChunks parses -chunks, validating each entry up front so the user
// sees a descriptive error (PipelineOpts.Check's, past the maximum), not a
// rank panic or an entry the sweep drops without a word.
func parseChunks(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var chunks []int
	for _, tok := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(tok))
		if err == nil && c < 1 {
			err = fmt.Errorf("a chunk count must be >= 1")
		}
		if err == nil {
			err = moe.PipelineOpts{OverlapChunks: c}.Check()
		}
		if err != nil {
			return nil, fmt.Errorf("invalid -chunks entry %q: %v", tok, err)
		}
		chunks = append(chunks, c)
	}
	return chunks, nil
}

// checkOptionFlags returns an error naming the first flag in set (the
// flags given explicitly) that bench.OptionReaders lists and no experiment
// in selected reads.
func checkOptionFlags(selected []bench.Experiment, set []string) error {
	for _, name := range set {
		readers, ok := bench.OptionReaders[name]
		if ok && !slices.ContainsFunc(selected, func(e bench.Experiment) bool { return slices.Contains(readers, e.Name) }) {
			return fmt.Errorf("-%s is read only by %s, and no selected experiment is one of them", name, strings.Join(readers, " and "))
		}
	}
	return nil
}
