// Command xmoe-train runs the implementation-validation training
// experiment (paper §5.6, Fig. 15): the same MoE language model trained
// under X-MoE's capacity-only token dropping and DeepSpeed-MoE's
// drop-negative-score policy, on identical data, printing both loss
// curves.
//
// With -dist it instead runs the simulated distributed expert-parallel
// trainer: full fwd+bwd+SGD steps on a virtual cluster, blocking vs
// chunked comm/compute overlap (-overlap), printing per-step simulated
// wall-clock, the per-stage breakdown, and the loss trajectories (which
// must match bit for bit between the two modes).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"xmoe/internal/bench"
	"xmoe/internal/fault"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/prof"
	"xmoe/internal/topology"
	"xmoe/internal/trace"
	"xmoe/internal/train"
	"xmoe/internal/transport"
)

// distConfig is the distributed trainer both -dist runs build: the Small
// model's expert count and top-k at numeric-tractable stand-ins for its
// dims, with the run-shape flags filled in.
func distConfig(kind transport.Kind, world, tokens, chunks int, seed uint64,
	zeroStage int, bucketMB int64, momentum float64) train.DistConfig {

	sh := model.Small()
	return train.DistConfig{
		MoE: moe.Config{
			NumExperts: sh.NumExperts, TopK: sh.TopK,
			HModel: 96, HFFN: 48,
			CapacityFactor: 1.25, BytesPerElem: 2,
		},
		World: world, Tokens: tokens, LR: 1e-2, Seed: seed,
		Transport: kind.String(),
		Opts:      moe.PipelineOpts{OverlapChunks: chunks},
		ZeROStage: zeroStage, BucketBytes: bucketMB << 20, Momentum: momentum,
	}
}

// runDistFT executes the fault-tolerant distributed run: train under a
// deterministic fault plan (explicit -faults spec and/or Poisson crashes
// drawn for -mtbf), checkpointing every -ckpt-every steps, recovering
// from crashes by rollback + elastic shrink, and reporting goodput.
func runDistFT(kind transport.Kind, world, tokens, overlap, iters int, seed uint64,
	faults string, mtbf float64, ckptEvery int, asyncCkpt bool, spares int, mitigate float64,
	zeroStage int, bucketMB int64, momentum float64) {

	cfg := distConfig(kind, world, tokens, overlap, seed, zeroStage, bucketMB, momentum)
	cfg.Mitigation = mitigate
	if err := cfg.Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	plan, err := fault.ParsePlan(faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if mtbf > 0 {
		// Crash arrivals over a horizon of ~20 MTBFs; arrivals past the
		// run's end simply never fire.
		poisson := fault.PlanCrashes(seed, world, 20*mtbf, mtbf)
		plan.Events = append(plan.Events, poisson.Events...)
		fmt.Printf("drew %d Poisson crash arrivals (MTBF %gs)\n", len(poisson.Events), mtbf)
	}
	tr, err := train.NewDistTrainer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	plan.Spares += spares
	rec := &trace.Recorder{}
	mode := "blocking"
	if asyncCkpt {
		mode = "async"
	}
	fmt.Printf("fault-tolerant %v trainer: EP=%d, %d tokens/rank, %d steps, %s ckpt every %d\n",
		kind, world, tokens, iters, mode, ckptEvery)
	if plan.Spares > 0 {
		fmt.Printf("hot-spare pool: %d\n", plan.Spares)
	}
	if mitigate > 0 {
		fmt.Printf("straggler mitigation: capacity rebalance bound %g\n", mitigate)
	}
	if plan.String() != "" {
		fmt.Printf("fault plan: %s\n", plan)
	}
	st, err := tr.RunFaultTolerant(train.FTOptions{
		Steps: iters, CkptEvery: ckptEvery, AsyncCkpt: asyncCkpt, Plan: plan, Rec: rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted %d useful steps: %d recoveries, %d replayed, %d spares promoted, world %d -> %d\n",
		st.Steps, st.Recoveries, st.ReplayedSteps, st.SparesUsed, world, st.FinalWorld)
	fmt.Printf("final loss %.6f\n", st.FinalLoss)
	fmt.Printf("goodput %.3f: useful %.3fms + ckpt %.3fms + lost %.3fms = wall %.3fms\n",
		st.Goodput, st.UsefulTime*1e3, st.CkptTime*1e3, st.LostTime*1e3, st.WallClock*1e3)
	if marks := rec.Marks(); len(marks) > 0 {
		fmt.Println("\nevent timeline:")
		for _, e := range marks {
			fmt.Printf("  %10.3fms  %s\n", e.Start*1e3, e.Name)
		}
	}
}

// runDist executes the distributed-trainer comparison. engine selects the
// cost engine for the timing-at-scale replay (bench.NewEngine vocabulary);
// the numeric loss runs always use the analytic fast path, which the
// event engine is cross-validated against.
func runDist(kind transport.Kind, world, tokens, overlap, iters int, seed uint64, engine string,
	zeroStage int, bucketMB int64, momentum float64) {

	mk := func(chunks int) train.DistConfig {
		return distConfig(kind, world, tokens, chunks, seed, zeroStage, bucketMB, momentum)
	}
	// Validate the flag-derived options before entering any SPMD body so
	// the user sees the descriptive error, not a rank panic.
	cfg := mk(overlap)
	if err := cfg.Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	run := func(chunks int) (losses []float64, wall float64, last train.DistStepStats) {
		tr, err := train.NewDistTrainer(mk(chunks))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for i := 0; i < iters; i++ {
			stats, err := tr.Step()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			losses = append(losses, stats.Loss)
			wall += stats.WallClock
			last = stats
		}
		return losses, wall, last
	}

	fmt.Printf("distributed %v trainer: EP=%d, %d tokens/rank, %d steps\n", kind, world, tokens, iters)
	blockLoss, blockWall, _ := run(1)
	chunkLoss, chunkWall, last := run(overlap)

	identical := len(blockLoss) == len(chunkLoss)
	for i := 0; identical && i < len(blockLoss); i++ {
		identical = blockLoss[i] == chunkLoss[i]
	}
	fmt.Printf("\n%6s  %14s  %14s\n", "step", "blocking loss", fmt.Sprintf("C=%d loss", overlap))
	for i := range blockLoss {
		fmt.Printf("%6d  %14.6f  %14.6f\n", i, blockLoss[i], chunkLoss[i])
	}
	fmt.Printf("\nloss trajectories bit-identical: %v\n", identical)
	fmt.Printf("simulated step time: blocking %.3fms, C=%d %.3fms (%.2fx)\n",
		blockWall/float64(iters)*1e3, overlap, chunkWall/float64(iters)*1e3, blockWall/chunkWall)
	fmt.Printf("in-flight comm per overlapped step: %.3fms; breakdown-vs-clock imbalance: %.3gs\n",
		last.CommInFlight*1e3, last.MaxImbalance)
	names := make([]string, 0, len(last.Breakdown))
	for n := range last.Breakdown {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("\nper-stage charged breakdown of the last overlapped step (sums to wall-clock):")
	for _, n := range names {
		fmt.Printf("  %-18s %9.4fms\n", n, last.Breakdown[n]*1e3)
	}

	// The numeric run above proves determinism at laptop-scale dims,
	// where there is little communication to hide and chunking's launch
	// overheads dominate. The timing story lives at the paper's scale:
	// replay the step symbolically on the communication-heavy regime,
	// through the same bench.StepClock harness the abl-overlap-bwd
	// ablation measures.
	const symWorld, symTokens = 16, 1024
	symCfg := moe.Config{
		NumExperts: 64, TopK: 6, HModel: 4096, HFFN: 2048,
		CapacityFactor: 1.25, BytesPerElem: 2,
	}
	engName := engine
	if engName == "" {
		engName = "analytic"
	}
	fmt.Printf("\ntiming at scale (symbolic fwd+bwd step, H=%d, EP=%d, engine %s):\n",
		symCfg.HModel, symWorld, engName)
	symBlock := bench.StepClock(topology.Frontier(), symCfg, symWorld, symTokens, kind, 1, 1, seed, engine)
	symChunk := bench.StepClock(topology.Frontier(), symCfg, symWorld, symTokens, kind, overlap, overlap, seed, engine)
	fmt.Printf("  blocking %.3fms, C=%d %.3fms (%.2fx)\n",
		symBlock*1e3, overlap, symChunk*1e3, symBlock/symChunk)
}

// runMode is what one invocation runs; each reads its own set of flags.
type runMode int

const (
	lmMode   runMode = iota // the LM dropping-policy comparison
	distMode                // -dist: blocking vs overlapped trainer
	ftMode                  // -dist with -faults, -mtbf or -spares: the fault-tolerant run
)

func (m runMode) String() string {
	return [...]string{"LM", "-dist", "fault-tolerant -dist"}[m]
}

// flagReaders names the modes that read each flag only some modes read;
// every mode reads the others (-dist, -seed, -cpuprofile). -faults,
// -mtbf and -spares choose between the two -dist modes, so both read them.
var flagReaders = map[string][]runMode{
	"iters": {lmMode}, "policy": {lmMode}, "capacity": {lmMode}, "smooth": {lmMode},
	"transport": {distMode, ftMode}, "ep": {distMode, ftMode}, "tokens": {distMode, ftMode},
	"overlap": {distMode, ftMode}, "dist-iters": {distMode, ftMode},
	"zero": {distMode, ftMode}, "bucket-mb": {distMode, ftMode}, "momentum": {distMode, ftMode},
	"faults": {distMode, ftMode}, "mtbf": {distMode, ftMode}, "spares": {distMode, ftMode},
	"engine":     {distMode},
	"ckpt-every": {ftMode}, "async-ckpt": {ftMode}, "mitigate": {ftMode},
}

// checkModeFlags returns an error naming the first of the explicitly set
// flags that mode never reads: a flag a run ignores would otherwise look
// as if it had taken effect.
func checkModeFlags(mode runMode, set []string) error {
	for _, name := range set {
		if readers, ok := flagReaders[name]; ok && !slices.Contains(readers, mode) {
			names := make([]string, len(readers))
			for i, m := range readers {
				names[i] = m.String()
			}
			return fmt.Errorf("-%s is read only in %s mode, not in %v mode", name, strings.Join(names, " and "), mode)
		}
	}
	return nil
}

func main() {
	iters := flag.Int("iters", 500, "training iterations")
	policy := flag.String("policy", "both", "dropping policy: xmoe, dsmoe, or both")
	seed := flag.Uint64("seed", 1234, "initialisation and data seed")
	capacity := flag.Float64("capacity", 1.1, "expert capacity factor")
	window := flag.Int("smooth", 25, "moving-average window for the printed curve")
	dist := flag.Bool("dist", false, "run the simulated distributed EP trainer (blocking vs overlapped)")
	transportName := flag.String("transport", transport.PFT.String(), "distributed transport: "+fmt.Sprint(transport.Kinds()))
	world := flag.Int("ep", 8, "distributed mode: expert-parallel group size")
	tokens := flag.Int("tokens", 128, "distributed mode: tokens per rank per step")
	overlap := flag.Int("overlap", 4, "distributed mode: comm/compute overlap chunk count")
	distIters := flag.Int("dist-iters", 8, "distributed mode: training steps")
	faults := flag.String("faults", "", "distributed mode: deterministic fault plan, e.g. 'crash:r1@s4,straggler:r0@s0:x2' (implies fault-tolerant run)")
	mtbf := flag.Float64("mtbf", 0, "distributed mode: draw Poisson crash arrivals with this mean-time-between-failures in simulated seconds (implies fault-tolerant run)")
	ckptEvery := flag.Int("ckpt-every", 5, "fault-tolerant mode: checkpoint every N steps (0 = only the initial checkpoint)")
	asyncCkpt := flag.Bool("async-ckpt", false, "fault-tolerant mode: stream checkpoint writes behind training steps, charging only the uncovered remainder (crash mid-write falls back to the last completed snapshot)")
	spares := flag.Int("spares", 0, "fault-tolerant mode: hot-spare pool size; recovery promotes spares into dead slots, regrowing toward the original world (adds to any spares:<n> in -faults)")
	mitigate := flag.Float64("mitigate", 0, "fault-tolerant mode: straggler-aware capacity rebalance bound in (0,1]; 0 disables (pft and rbd transports only)")
	engine := flag.String("engine", "analytic", "distributed mode: cost engine for the timing-at-scale replay ("+bench.EngineSpecs+")")
	zeroStage := flag.Int("zero", 0, "distributed mode: ZeRO stage (0 = replicated, 1 = sharded optimizer state, 2 = + sharded gradients)")
	bucketMB := flag.Int64("bucket-mb", 0, "distributed mode: gradient-sync bucket size in MiB (0 = one bucket per stream)")
	momentum := flag.Float64("momentum", 0, "distributed mode: SGD momentum (its state shards under -zero >= 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "xmoe-train: unexpected argument %q: every option is a flag\n", flag.Arg(0))
		os.Exit(2)
	}
	mode := lmMode
	if *dist {
		mode = distMode
		if *faults != "" || *mtbf > 0 || *spares > 0 {
			mode = ftMode
		}
		// Only the name is checked here, on a fixed world, so a bad -ep
		// still meets DistConfig.Check's message.
		if _, err := bench.NewEngine(topology.Frontier(), 8, *engine); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModeFlags(mode, set); err != nil {
		fmt.Fprintln(os.Stderr, "xmoe-train:", err)
		os.Exit(2)
	}
	defer prof.StartCPU(*cpuProfile)()

	if *dist {
		kind, err := transport.Parse(*transportName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The run-shape flags DistConfig does not carry are checked here,
		// before any training: a bad one exits 2 with a message.
		var usage error
		switch {
		case *distIters < 1:
			usage = fmt.Errorf("-dist-iters %d: want at least 1 training step", *distIters)
		case !(*mtbf >= 0): // NaN too
			usage = fmt.Errorf("-mtbf %g: want a mean time between failures >= 0 (0 draws no crashes)", *mtbf)
		case *spares < 0:
			usage = fmt.Errorf("-spares %d: want a hot-spare pool size >= 0", *spares)
		case *ckptEvery < 0:
			usage = fmt.Errorf("-ckpt-every %d: want a checkpoint interval >= 0 (0 takes only the initial checkpoint)", *ckptEvery)
		}
		if usage != nil {
			fmt.Fprintln(os.Stderr, "xmoe-train:", usage)
			os.Exit(2)
		}
		if mode == ftMode {
			runDistFT(kind, *world, *tokens, *overlap, *distIters, *seed,
				*faults, *mtbf, *ckptEvery, *asyncCkpt, *spares, *mitigate,
				*zeroStage, *bucketMB, *momentum)
			return
		}
		runDist(kind, *world, *tokens, *overlap, *distIters, *seed, *engine,
			*zeroStage, *bucketMB, *momentum)
		return
	}

	// The LM path's flags are checked before any training, like the
	// distributed path's: a bad one exits 2 with a message.
	runX := *policy == "xmoe" || *policy == "both"
	runD := *policy == "dsmoe" || *policy == "both"
	mkCfg := func(p moe.DropPolicy) train.LMConfig {
		cfg := train.DefaultLMConfig(p)
		cfg.Seed = *seed
		cfg.MoE.CapacityFactor = *capacity
		return cfg
	}
	var usage error
	switch {
	case *iters < 1:
		usage = fmt.Errorf("-iters %d: want at least 1 training iteration", *iters)
	case *window < 1:
		usage = fmt.Errorf("-smooth %d: want a moving-average window of at least 1 iteration", *window)
	case !runX && !runD:
		usage = fmt.Errorf("-policy %q: want xmoe, dsmoe or both", *policy)
	default:
		usage = mkCfg(moe.DropByCapacityWeight).MoE.Validate()
	}
	if usage != nil {
		fmt.Fprintln(os.Stderr, "xmoe-train:", usage)
		os.Exit(2)
	}

	mk := func(p moe.DropPolicy) []float64 {
		cfg := mkCfg(p)
		fmt.Printf("training %s for %d iters\n", cfg, *iters)
		return train.Smooth(train.LossCurve(cfg, *iters), *window)
	}
	var xs, ds []float64
	if runX {
		xs = mk(moe.DropByCapacityWeight)
	}
	if runD {
		ds = mk(moe.DropNegativeThenPosition)
	}

	fmt.Printf("\n%10s  %12s  %12s\n", "iteration", "X-MoE loss", "DS-MoE loss")
	step := *iters / 25
	if step < 1 {
		step = 1
	}
	val := func(c []float64, i int) string {
		if c == nil {
			return "-"
		}
		return fmt.Sprintf("%.4f", c[i])
	}
	for i := 0; i < *iters; i += step {
		fmt.Printf("%10d  %12s  %12s\n", i, val(xs, i), val(ds, i))
	}
	last := *iters - 1
	fmt.Printf("%10s  %12s  %12s\n", "final", val(xs, last), val(ds, last))
	if xs != nil && ds != nil {
		fmt.Printf("\nfinal gap (DS-MoE - X-MoE): %+.4f — the paper attributes X-MoE's slightly\n", ds[last]-xs[last])
		fmt.Println("lower loss to retaining more tokens per batch (capacity-only dropping)")
	}
}
