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

// AblationFaultsResult carries the ablation's series for tests.
type AblationFaultsResult struct {
	// Transports names the columns.
	Transports []transport.Kind
	// StepSec is each transport's healthy per-step simulated time.
	StepSec []float64
	// MTBFxStep is the MTBF sweep, in multiples of the pft step time.
	MTBFxStep []float64
	// Goodput[t][m] is transport t's goodput at MTBF m (Young/Daly
	// checkpoint interval).
	Goodput [][]float64
	// CkptSteps is the checkpoint-interval sweep (steps).
	CkptSteps []int
	// CkptGoodput[i] is pft goodput at CkptSteps[i] under the fixed MTBF.
	CkptGoodput []float64
	// YoungDalySteps is the analytic optimum interval in steps.
	YoungDalySteps float64
	// GoodputAsync[t][m] mirrors Goodput with asynchronous checkpoint
	// writes: the write streams behind subsequent steps and only the
	// uncovered remainder stalls, at the cost of falling back one more
	// interval when a crash lands mid-write.
	GoodputAsync [][]float64
	// StragglerScale is the compute-multiplier sweep for one slow rank.
	StragglerScale []float64
	// StragglerSlowdown[t][i] is transport t's step-time ratio vs healthy.
	StragglerSlowdown [][]float64
	// FT is the numeric trainer's recovery run (real crash + rollback).
	FT train.FTStats
	// SpareSizes is the hot-spare-pool sweep; SpareFT[i] is the numeric
	// trainer's run with SpareSizes[i] spares against the same crash.
	SpareSizes []int
	SpareFT    []train.FTStats
	// MitigationScale is the straggler-multiplier sweep for the at-scale
	// mitigation comparison (pft, Large dims); WallUnmitigated/WallMitigated
	// are the per-step wall-clocks with the capacity rebalance off and on.
	MitigationScale []float64
	WallUnmitigated []float64
	WallMitigated   []float64
}

// replayGoodput walks a deterministic crash schedule against a fixed
// per-step time: steps complete sequentially, a checkpoint (cost ckpt) is
// written every ckptEvery useful steps, and a crash arriving mid-flight
// rolls progress back to the last durable checkpoint and charges a
// restart read. Returns useful/wall. The world stays fixed (failed nodes
// are replaced). In blocking mode every write stalls training for its
// full cost and is durable immediately; in async mode the write streams
// behind the following steps (same double-buffer schedule as
// train.CkptStream) — only the remainder still in flight when the next
// write is issued stalls, and a crash landing mid-write discards the
// in-flight snapshot, rolling back to the previous durable one.
func replayGoodput(stepSec, ckpt float64, ckptEvery, steps int, crashes []float64, async bool) float64 {
	if ckptEvery < 1 {
		ckptEvery = 1
	}
	wall, useful := 0.0, 0.0
	done, durable := 0, 0
	pending, pendEnd := -1, 0.0
	promote := func(now float64) {
		if pending >= 0 && now >= pendEnd {
			durable, pending = pending, -1
		}
	}
	ci := 0
	for done < steps {
		end := wall + stepSec
		if ci < len(crashes) && crashes[ci] < end {
			// Crash mid-step: the partial attempt plus everything since
			// the durable checkpoint is lost; a write still streaming at
			// the crash instant never became durable.
			promote(crashes[ci])
			pending = -1
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
			promote(wall)
			if pending >= 0 {
				// Uncovered remainder: the previous write outlived its
				// interval, so the new one stalls until it lands.
				wall = pendEnd
				durable, pending = pending, -1
			}
			pending, pendEnd = done, wall+ckpt
			if !async {
				wall = pendEnd
				durable, pending = done, -1
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

// AblationFaults runs the fault-tolerance ablation and prints its tables.
func AblationFaults(w io.Writer, opts Options) AblationFaultsResult {
	m := topology.Frontier()
	shape := model.Large()
	ep := 32
	s := shape.SeqLen
	ftSteps := 12
	if opts.Quick {
		ep = 8
		s = 1024
		ftSteps = 6
	}
	cfg := moe.LayerOf(shape)
	res := AblationFaultsResult{Transports: transport.Kinds()}

	// --- Healthy per-step time per transport -------------------------------
	for _, tr := range res.Transports {
		t, _ := stepClockInjected(m, cfg, ep, s, tr, opts.Seed, nil, nil)
		res.StepSec = append(res.StepSec, t)
	}

	// Checkpoint cost: all expert parameters (f32) stream off-node at NIC
	// bandwidth — the same model train.DistTrainer.CkptCost applies.
	ckptBytes := int64(cfg.NumExperts) * int64(cfg.HModel) * int64(cfg.HFFN) * 2 * 4
	ckpt := float64(ckptBytes) / m.NodeNICBandwidth

	// --- Goodput vs MTBF (Young/Daly interval per point) -------------------
	res.MTBFxStep = []float64{20, 100, 500, 2500}
	steps := 4000
	if opts.Quick {
		steps = 1000
	}
	header(w, fmt.Sprintf("Ablation: goodput vs MTBF, %s layer, EP=%d (ckpt write %.1fms), blocking vs async writes", shape.Name, ep, ckpt*1e3))
	cols := []string{"MTBF/step(pft)"}
	for _, tr := range res.Transports {
		cols = append(cols, tr.String(), tr.String()+"-async")
	}
	tb := newTable(cols...)
	base := res.StepSec[0]
	for range res.Transports {
		res.Goodput = append(res.Goodput, nil)
		res.GoodputAsync = append(res.GoodputAsync, nil)
	}
	// Average several independent crash schedules per cell: a single
	// Poisson realization is noisy enough to break monotonicity in MTBF.
	const plans = 5
	for _, mx := range res.MTBFxStep {
		mtbf := mx * base
		row := []string{fmt.Sprintf("%.0fx", mx)}
		for ti := range res.Transports {
			st := res.StepSec[ti]
			horizon := float64(steps) * st * 4
			interval := int(math.Round(fault.YoungDaly(ckpt, mtbf) / st))
			// Each mode runs its own optimal interval. Young/Daly balances
			// the blocking stall against replay; async has no stall to
			// balance, so its interval is bandwidth-bound — the shortest
			// one whose steps fully cover the streaming write — which also
			// keeps the mid-write fallback distance small.
			intervalAsync := int(math.Ceil(ckpt / st))
			if intervalAsync < 1 {
				intervalAsync = 1
			}
			var g, ga float64
			for p := 0; p < plans; p++ {
				crashes := fault.PlanCrashes(opts.Seed+uint64(ti)*31+uint64(p)*1e6, ep, horizon, mtbf).CrashTimes()
				g += replayGoodput(st, ckpt, interval, steps, crashes, false)
				ga += replayGoodput(st, ckpt, intervalAsync, steps, crashes, true)
			}
			g /= plans
			ga /= plans
			res.Goodput[ti] = append(res.Goodput[ti], g)
			res.GoodputAsync[ti] = append(res.GoodputAsync[ti], ga)
			row = append(row, fmt.Sprintf("%.3f", g), fmt.Sprintf("%.3f", ga))
		}
		tb.add(row...)
	}
	tb.write(w)
	fmt.Fprintln(w, "  blocking uses the Young/Daly interval sqrt(2*delta*MTBF) per point; async uses the")
	fmt.Fprintln(w, "  bandwidth-bound interval (write time / step time) since its writes stream behind the")
	fmt.Fprintln(w, "  next steps and stall only the uncovered remainder;")
	fmt.Fprintln(w, "  goodput = useful-step time / wall-clock, crashes replayed from seeded Poisson plans")

	// --- Checkpoint-interval sensitivity vs Young/Daly ---------------------
	mtbf := 100 * base
	res.YoungDalySteps = fault.YoungDaly(ckpt, mtbf) / base
	res.CkptSteps = []int{1, 2, 4, 8, 16, 32, 64, 128}
	header(w, fmt.Sprintf("Ablation: checkpoint-interval sensitivity, pft, MTBF=100 steps (Young/Daly optimum %.1f steps)", res.YoungDalySteps))
	tb = newTable("interval (steps)", "goodput")
	for _, iv := range res.CkptSteps {
		var g float64
		for p := 0; p < plans; p++ {
			horizon := float64(steps) * base * 4
			crashes := fault.PlanCrashes(opts.Seed+uint64(p)*1e6, ep, horizon, mtbf).CrashTimes()
			g += replayGoodput(base, ckpt, iv, steps, crashes, false)
		}
		g /= plans
		res.CkptGoodput = append(res.CkptGoodput, g)
		tb.add(fmt.Sprintf("%d", iv), fmt.Sprintf("%.3f", g))
	}
	tb.write(w)
	fmt.Fprintln(w, "  too-frequent checkpoints pay the write cost every step; too-rare ones replay")
	fmt.Fprintln(w, "  long tails after each crash — goodput peaks near the Young/Daly interval")

	// --- Straggler sensitivity per transport -------------------------------
	res.StragglerScale = []float64{1, 1.5, 2, 4}
	header(w, fmt.Sprintf("Ablation: straggler sensitivity (one rank's compute x scale), EP=%d", ep))
	cols = []string{"scale"}
	for _, tr := range res.Transports {
		cols = append(cols, tr.String())
		res.StragglerSlowdown = append(res.StragglerSlowdown, nil)
	}
	tb = newTable(cols...)
	for _, sc := range res.StragglerScale {
		row := []string{fmt.Sprintf("x%.1f", sc)}
		for ti, tr := range res.Transports {
			var inj *fault.Injector
			if sc != 1 {
				plan, err := fault.ParsePlan(fmt.Sprintf("straggler:r0@s0:x%g", sc))
				if err != nil {
					panic(err)
				}
				inj = fault.NewInjector(plan, ep)
			}
			t, _ := stepClockInjected(m, cfg, ep, s, tr, opts.Seed, inj, nil)
			slow := t / res.StepSec[ti]
			res.StragglerSlowdown[ti] = append(res.StragglerSlowdown[ti], slow)
			row = append(row, fmt.Sprintf("%.2fx", slow))
		}
		tb.add(row...)
	}
	tb.write(w)
	fmt.Fprintln(w, "  BSP collectives make every rank wait for the slowest; the transport with the")
	fmt.Fprintln(w, "  higher compute fraction inherits more of the straggler's slowdown")

	// --- Numeric trainer: real crash, rollback, elastic shrink -------------
	tcfg := train.DistConfig{
		MoE: moe.Config{NumExperts: 8, TopK: 3, HModel: 12, HFFN: 8,
			CapacityFactor: 1.25, BytesPerElem: 2},
		World: 4, Tokens: 32, LR: 1e-2, Seed: opts.Seed,
		Transport: transport.PFT.String(), Opts: moe.PipelineOpts{OverlapChunks: 2},
	}
	trn, err := train.NewDistTrainer(tcfg)
	if err != nil {
		panic(err)
	}
	plan, err := fault.ParsePlan(fmt.Sprintf("crash:r1@s%d", ftSteps/2))
	if err != nil {
		panic(err)
	}
	res.FT, err = trn.RunFaultTolerant(train.FTOptions{
		Steps: ftSteps, CkptEvery: 3, Plan: plan,
	})
	if err != nil {
		panic(err)
	}
	header(w, "Fault-tolerant numeric trainer (real crash + rollback + elastic shrink)")
	fmt.Fprintf(w, "  %d useful steps, %d recovery, %d replayed, world %d -> %d\n",
		res.FT.Steps, res.FT.Recoveries, res.FT.ReplayedSteps, tcfg.World, res.FT.FinalWorld)
	fmt.Fprintf(w, "  goodput %.3f (useful %.2fms, ckpt %.2fms, lost %.2fms, wall %.2fms)\n",
		res.FT.Goodput, res.FT.UsefulTime*1e3, res.FT.CkptTime*1e3, res.FT.LostTime*1e3, res.FT.WallClock*1e3)

	// --- Spare-pool size: shrink vs regrow after the same crash ------------
	res.SpareSizes = []int{0, 1, 2}
	header(w, "Ablation: hot-spare pool size (same crash; spares promote into the dead slot)")
	tb = newTable("spares", "final world", "promoted", "useful tokens", "goodput")
	for _, sp := range res.SpareSizes {
		trn, err := train.NewDistTrainer(tcfg)
		if err != nil {
			panic(err)
		}
		plan, err := fault.ParsePlan(fmt.Sprintf("crash:r1@s%d,spares:%d", ftSteps/2, sp))
		if err != nil {
			panic(err)
		}
		st, err := trn.RunFaultTolerant(train.FTOptions{
			Steps: ftSteps, CkptEvery: 3, AsyncCkpt: true, Plan: plan,
		})
		if err != nil {
			panic(err)
		}
		res.SpareFT = append(res.SpareFT, st)
		tb.add(fmt.Sprintf("%d", sp), fmt.Sprintf("%d", st.FinalWorld),
			fmt.Sprintf("%d", st.SparesUsed), fmt.Sprintf("%d", st.UsefulTokens),
			fmt.Sprintf("%.3f", st.Goodput))
	}
	tb.write(w)
	fmt.Fprintln(w, "  without spares the crash shrinks the world (and its token throughput) for the")
	fmt.Fprintln(w, "  rest of the run; one promoted spare restores the original world")

	// --- Straggler mitigation on/off ---------------------------------------
	// Runs at the at-scale symbolic tier (Large dims): there the per-expert
	// GEMMs are flops-dominated, so shifting capacity away from the slow rank
	// genuinely moves the simulated step time. (At the numeric toy dims every
	// GEMM sits on the kernel-launch floor and capacity changes are invisible
	// — which is exactly why the trainer-level tests only pin determinism and
	// loss tolerance, not wall-clock.) One observation step measures per-rank
	// Busy compute clocks, RebalanceCapacity turns them into per-expert caps,
	// and a second step runs with the caps applied.
	res.MitigationScale = []float64{1, 2, 4}
	header(w, fmt.Sprintf("Ablation: straggler-aware capacity rebalance (pft, EP=%d, one permanent straggler, bound 0.5)", ep))
	tb = newTable("scale", "step off", "step on", "speedup")
	for _, sc := range res.MitigationScale {
		mkInj := func() *fault.Injector {
			if sc == 1 {
				return nil
			}
			plan, err := fault.ParsePlan(fmt.Sprintf("straggler:r0@s0:x%g", sc))
			if err != nil {
				panic(err)
			}
			return fault.NewInjector(plan, ep)
		}
		wallOff, busy := stepClockInjected(m, cfg, ep, s, transport.PFT, opts.Seed, mkInj(), nil)
		wallOn := wallOff
		if caps := moe.RebalanceCapacity(cfg, s, ep, busy, 0.5); caps != nil {
			wallOn, _ = stepClockInjected(m, cfg, ep, s, transport.PFT, opts.Seed, mkInj(), caps)
		}
		res.WallUnmitigated = append(res.WallUnmitigated, wallOff)
		res.WallMitigated = append(res.WallMitigated, wallOn)
		tb.add(fmt.Sprintf("x%g", sc), fmt.Sprintf("%.2fms", wallOff*1e3),
			fmt.Sprintf("%.2fms", wallOn*1e3), fmt.Sprintf("%.2fx", wallOff/wallOn))
	}
	tb.write(w)
	fmt.Fprintln(w, "  per-rank Busy compute clocks from an observation step shift expert capacity away")
	fmt.Fprintln(w, "  from the slow rank, clamped to +/-bound so the loss stays near uniform routing")

	RecordMetric("abl_faults_pft_goodput_mtbf100", res.Goodput[0][1])
	RecordMetric("abl_faults_pft_async_goodput_mtbf100", res.GoodputAsync[0][1])
	RecordMetric("abl_faults_rbd_goodput_mtbf100", res.Goodput[2][1])
	RecordMetric("abl_faults_youngdaly_steps", res.YoungDalySteps)
	RecordMetric("abl_faults_ft_goodput", res.FT.Goodput)
	RecordMetric("abl_faults_spare1_useful_tokens", float64(res.SpareFT[1].UsefulTokens))
	RecordMetric("abl_faults_mitigation_x4_speedup", res.WallUnmitigated[2]/res.WallMitigated[2])
	RecordMetric("abl_faults_pft_straggler_x4", res.StragglerSlowdown[0][3])
	return res
}
