package bench

// AblationFaults: fault-tolerance economics of the three transports. The
// paper's evaluation assumes a healthy machine; at the scales it targets
// (1024+ GCDs) that assumption fails hourly, so this ablation measures
// what survives contact with faults: goodput (useful-step time over
// wall-clock) as MTBF shrinks, checkpoint-interval sensitivity against
// the Young/Daly optimum, and per-transport straggler sensitivity.
//
// Two tiers share the fault machinery. The numeric tier runs the real
// DistTrainer through RunFaultTolerant — actual crash, rollback, elastic
// shrink/regrow, spare promotion, straggler mitigation, bit-deterministic
// recovery — at test-scale dims. The at-scale tier replays deterministic
// Poisson crash schedules (fault.PlanCrashes) against measured per-step
// times on the paper's Large layer, keeping the world fixed across
// failures (crash-with-replacement, the standard goodput model), in both
// blocking and async checkpoint modes. All three transports are measured
// fwd+bwd: RBD runs its native hierarchical backward (the reverse-stage
// dispatch), not a scaled-forward estimate.

import (
	"fmt"
	"io"
	"math"

	"xmoe/internal/fault"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/topology"
	"xmoe/internal/train"
	"xmoe/internal/transport"
)

// replayGoodput walks a deterministic crash schedule against a fixed
// per-step time: steps complete sequentially, a checkpoint (cost ckpt) is
// written every ckptEvery useful steps, and a crash arriving mid-flight
// rolls progress back to the last durable checkpoint and charges a
// restart read. Returns useful/wall. The world stays fixed (failed nodes
// are replaced). The writes run through a train.CkptStream of step
// markers: in blocking mode each Issue is drained at once, stalling
// training for the write's full cost; in async mode the write streams
// behind the following steps — only the remainder still in flight when
// the next write is issued stalls, and a crash landing mid-write discards
// the in-flight snapshot, rolling back to the previous durable one.
func replayGoodput(stepSec, ckpt float64, ckptEvery, steps int, crashes []float64, async bool) float64 {
	if ckptEvery < 1 {
		ckptEvery = 1
	}
	cs := train.NewCkptStream(ckpt, &train.Checkpoint{})
	wall, useful, done := 0.0, 0.0, 0
	ci := 0
	for done < steps {
		end := wall + stepSec
		if ci < len(crashes) && crashes[ci] < end {
			// Crash mid-step: the partial attempt plus everything since
			// the durable checkpoint is lost.
			durable := cs.Abort(crashes[ci]).Step
			wall = crashes[ci] + ckpt // restart read
			useful -= float64(done-durable) * stepSec
			done = durable
			ci++
			continue
		}
		wall = end
		useful += stepSec
		done++
		if done%ckptEvery == 0 && done < steps {
			wall += cs.Issue(&train.Checkpoint{Step: done}, wall)
			if !async {
				wall += cs.Drain(wall)
			}
		}
	}
	return fault.Goodput(useful, wall)
}

// faultStepChunks is the chunk count (both passes) each transport's fault
// rows were recorded at: the flat transports chunked at C=4, RBD on its
// blocking schedule. Moving RBD to C=4 changes every RBD number in the
// ablation and is a model change to declare, not a clean-up.
func faultStepChunks(kind transport.Kind) int {
	if kind == transport.RBD {
		return 1
	}
	return 4
}

// stepClockInjected is StepClock with a fault injector attached: one
// symbolic fwd+bwd step under compute-scale injection. caps, when non-nil,
// routes with per-expert capacities (the straggler mitigation's rebalanced
// vector). Besides the wall-clock it returns each rank's busy compute time
// — the observation the rebalance feeds on.
func stepClockInjected(m *topology.Machine, cfg moe.Config, world, s int,
	kind transport.Kind, seed uint64, inj *fault.Injector, caps []int) (float64, []float64) {

	chunks := faultStepChunks(kind)
	ranks := runLayer(layerSpec{machine: m, cfg: cfg, world: world, s: s, kind: kind,
		fwdChunks: chunks, bwdChunks: chunks, inject: inj, caps: caps, seed: seed})
	return simrt.MaxClock(ranks), simrt.BusyTimes(ranks)
}

// stragglerAt returns an injector that runs rank 0's compute scale times
// slower from step 0 on a world-rank cluster, or nil for scale 1.
func stragglerAt(scale float64, world int) *fault.Injector {
	if scale == 1 {
		return nil
	}
	plan, err := fault.ParsePlan(fmt.Sprint("straggler:r0@s0:x", scale))
	if err != nil {
		panic(err)
	}
	return fault.NewInjector(plan, world)
}

// AblationFaults runs the fault-tolerance ablation.
func AblationFaults(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Large()
	ep, s, ftSteps, steps := 32, shape.SeqLen, 12, 4000
	if opts.Quick {
		ep, s, ftSteps, steps = 8, 1024, 6, 1000
	}
	cfg := moe.LayerOf(shape)
	var rows []Row

	// --- Healthy per-step time per transport -------------------------------
	stepSec := map[transport.Kind]float64{}
	for _, tr := range transport.Kinds() {
		stepSec[tr], _ = stepClockInjected(m, cfg, ep, s, tr, opts.Seed, nil, nil)
		rows = append(rows, Row{fmt.Sprint(tr, "/step"), "ms", stepSec[tr] * 1e3, 0})
	}

	// Checkpoint cost: every expert's f32 weights (W1 and W2) stream
	// off-node through one NIC. This is not train.DistTrainer.CkptCost,
	// which charges each rank's memmodel.CheckpointBytes (its experts'
	// optimizer state and its share of the dense state included) times
	// the ranks sharing a node's NIC.
	ckptBytes := int64(cfg.NumExperts) * int64(cfg.HModel) * int64(cfg.HFFN) * 2 * 4
	ckpt := float64(ckptBytes) / m.NodeNICBandwidth
	rows = append(rows, Row{"ckpt write", "ms", ckpt * 1e3, 0})

	// --- Goodput vs MTBF (in pft steps) ------------------------------------
	// Average several independent crash schedules per cell: a single
	// Poisson realization is noisy enough to break monotonicity in MTBF.
	const plans = 5
	base := stepSec[transport.PFT]
	for _, mx := range []float64{20, 100, 500, 2500} {
		mtbf := mx * base
		for ti, tr := range transport.Kinds() {
			st := stepSec[tr]
			horizon := float64(steps) * st * 4
			interval := int(math.Round(fault.YoungDaly(ckpt, mtbf) / st))
			// Each mode runs its own optimal interval. Young/Daly balances
			// the blocking stall against replay; async has no stall to
			// balance, so its interval is bandwidth-bound — the shortest
			// one whose steps fully cover the streaming write — which also
			// keeps the mid-write fallback distance small.
			intervalAsync := max(int(math.Ceil(ckpt/st)), 1)
			var g, ga float64
			for p := 0; p < plans; p++ {
				crashes := fault.PlanCrashes(opts.Seed+uint64(ti)*31+uint64(p)*1e6, ep, horizon, mtbf).CrashTimes()
				g += replayGoodput(st, ckpt, interval, steps, crashes, false)
				ga += replayGoodput(st, ckpt, intervalAsync, steps, crashes, true)
			}
			key := fmt.Sprint("MTBF=", mx, "x/", tr)
			rows = append(rows, Row{key, "ratio", g / plans, 0}, Row{key + "-async", "ratio", ga / plans, 0})
		}
	}

	// --- Checkpoint-interval sensitivity vs Young/Daly ---------------------
	mtbf := 100 * base
	rows = append(rows, Row{fmt.Sprint(transport.PFT, "/Young-Daly interval"), "steps", fault.YoungDaly(ckpt, mtbf) / base, 0})
	for _, iv := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		var g float64
		for p := 0; p < plans; p++ {
			horizon := float64(steps) * base * 4
			crashes := fault.PlanCrashes(opts.Seed+uint64(p)*1e6, ep, horizon, mtbf).CrashTimes()
			g += replayGoodput(base, ckpt, iv, steps, crashes, false)
		}
		rows = append(rows, Row{fmt.Sprint(transport.PFT, "/interval=", iv), "ratio", g / plans, 0})
	}

	// --- Straggler sensitivity per transport -------------------------------
	for _, sc := range []float64{1, 1.5, 2, 4} {
		for _, tr := range transport.Kinds() {
			t, _ := stepClockInjected(m, cfg, ep, s, tr, opts.Seed, stragglerAt(sc, ep), nil)
			rows = append(rows, Row{fmt.Sprint("straggler x", sc, "/", tr), "x", t / stepSec[tr], 0})
		}
	}

	// --- Numeric trainer: real crash, rollback, elastic shrink; then the
	// hot-spare pool sweep against the same crash ---------------------------
	tcfg := train.DistConfig{
		MoE: moe.Config{NumExperts: 8, TopK: 3, HModel: 12, HFFN: 8,
			CapacityFactor: 1.25, BytesPerElem: 2},
		World: 4, Tokens: 32, LR: 1e-2, Seed: opts.Seed,
		Transport: transport.PFT.String(), Opts: moe.PipelineOpts{OverlapChunks: 2},
	}
	ftRun := func(key, spec string, async bool) {
		trn, err := train.NewDistTrainer(tcfg)
		if err != nil {
			panic(err)
		}
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			panic(err)
		}
		st, err := trn.RunFaultTolerant(train.FTOptions{Steps: ftSteps, CkptEvery: 3, AsyncCkpt: async, Plan: plan})
		if err != nil {
			panic(err)
		}
		key += "/"
		rows = append(rows, Row{key + "useful steps", "count", float64(st.Steps), 0},
			Row{key + "recoveries", "count", float64(st.Recoveries), 0},
			Row{key + "replayed steps", "count", float64(st.ReplayedSteps), 0},
			Row{key + "final world", "count", float64(st.FinalWorld), 0},
			Row{key + "promoted spares", "count", float64(st.SparesUsed), 0},
			Row{key + "useful tokens", "count", float64(st.UsefulTokens), 0},
			Row{key + "goodput", "ratio", st.Goodput, 0},
			Row{key + "useful", "ms", st.UsefulTime * 1e3, 0},
			Row{key + "ckpt", "ms", st.CkptTime * 1e3, 0},
			Row{key + "lost", "ms", st.LostTime * 1e3, 0},
			Row{key + "wall", "ms", st.WallClock * 1e3, 0})
	}
	ftRun("trainer", fmt.Sprint("crash:r1@s", ftSteps/2), false)
	for _, sp := range []int{0, 1, 2} {
		ftRun(fmt.Sprint("spares=", sp), fmt.Sprint("crash:r1@s", ftSteps/2, ",spares:", sp), true)
	}

	// --- Straggler mitigation on/off ---------------------------------------
	// Runs at the at-scale symbolic tier (Large dims): there the per-expert
	// GEMMs are flops-dominated, so shifting capacity away from the slow rank
	// genuinely moves the simulated step time. (At the numeric toy dims every
	// GEMM sits on the kernel-launch floor and capacity changes are invisible
	// — which is exactly why the trainer-level tests only pin determinism and
	// loss tolerance, not wall-clock.) One observation step measures per-rank
	// Busy compute clocks, RebalanceCapacity turns them into per-expert caps,
	// and a second step runs with the caps applied.
	for _, sc := range []float64{1, 2, 4} {
		wallOff, busy := stepClockInjected(m, cfg, ep, s, transport.PFT, opts.Seed, stragglerAt(sc, ep), nil)
		wallOn := wallOff
		if caps := moe.RebalanceCapacity(cfg, s, ep, busy, 0.5); caps != nil {
			wallOn, _ = stepClockInjected(m, cfg, ep, s, transport.PFT, opts.Seed, stragglerAt(sc, ep), caps)
		}
		key := fmt.Sprint(transport.PFT, "/rebalance x", sc, "/")
		rows = append(rows, Row{key + "off", "ms", wallOff * 1e3, 0}, Row{key + "on", "ms", wallOn * 1e3, 0},
			Row{key + "speedup", "x", wallOff / wallOn, 0})
	}

	return render(w, "Ablation: fault tolerance, Large layer, EP=32 (8 with -quick)", rows,
		"MTBF rows: goodput = useful-step time / wall-clock over seeded Poisson crash plans; blocking",
		"checkpoints use the Young/Daly interval sqrt(2*delta*MTBF), async ones the bandwidth-bound",
		"interval (write time / step time), stalling only the uncovered remainder; the interval sweep",
		"peaks near Young/Daly. Stragglers: BSP collectives make every rank wait for the slowest.",
		"trainer/spares rows: the numeric trainer's real crash, rollback and elastic shrink; a promoted",
		"spare restores the world. Rebalance rows: per-rank busy clocks from an observation step shift",
		"expert capacity away from the slow rank, within the rebalance bound of uniform")
}
