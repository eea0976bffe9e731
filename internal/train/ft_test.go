package train

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"xmoe/internal/fault"
	"xmoe/internal/simrt"
	"xmoe/internal/trace"
)

// weightsEqual compares every expert weight and the bias bit for bit.
func weightsEqual(t *testing.T, a, b *DistTrainer, label string) {
	t.Helper()
	if a.Cfg.World != b.Cfg.World {
		t.Fatalf("%s: world %d vs %d", label, a.Cfg.World, b.Cfg.World)
	}
	same := func(name string, rank int, x, y []float32) {
		t.Helper()
		for j := range x {
			if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
				t.Fatalf("%s: rank %d %s[%d] diverged", label, rank, name, j)
			}
		}
	}
	for rank := 0; rank < a.Cfg.World; rank++ {
		ap, bp := a.params[rank], b.params[rank]
		for le := range ap.W1 {
			same(fmt.Sprintf("W1[%d]", le), rank, ap.W1[le].Data, bp.W1[le].Data)
			same(fmt.Sprintf("W2[%d]", le), rank, ap.W2[le].Data, bp.W2[le].Data)
		}
		same("bias", rank, a.bias[rank], b.bias[rank])
	}
}

// weightsDiffer reports whether any expert weight differs between the two
// trainers — used to prove an option (e.g. capacity rebalance) engaged.
func weightsDiffer(a, b *DistTrainer) bool {
	if a.Cfg.World != b.Cfg.World {
		return true
	}
	for rank := 0; rank < a.Cfg.World; rank++ {
		ap, bp := a.params[rank], b.params[rank]
		for le := range ap.W1 {
			for j := range ap.W1[le].Data {
				if ap.W1[le].Data[j] != bp.W1[le].Data[j] {
					return true
				}
			}
			for j := range ap.W2[le].Data {
				if ap.W2[le].Data[j] != bp.W2[le].Data[j] {
					return true
				}
			}
		}
	}
	return false
}

// TestCheckpointRestoreRejects pins Restore's validation.
func TestCheckpointRestoreRejects(t *testing.T) {
	a, _ := NewDistTrainer(distTrainerConfig("pft", 1))
	ck := a.Checkpoint()
	ck.W1 = ck.W1[:4]
	if err := a.Restore(ck); err == nil {
		t.Fatal("expert-count mismatch must be rejected")
	}
}

// TestGrowShrinkRejects pins the world-transition validation: Resize, which
// both grows and shrinks the world, takes only a positive divisor of the
// expert count.
func TestGrowShrinkRejects(t *testing.T) {
	a, _ := NewDistTrainer(distTrainerConfig("pft", 1))
	for _, w := range []int{0, -4, 3, 5} {
		if err := a.Resize(w); err == nil {
			t.Fatalf("Resize(%d) must be rejected (%d experts)", w, a.Cfg.MoE.NumExperts)
		}
	}
}

// TestShrinkWorld pins the elastic sizing rule.
func TestShrinkWorld(t *testing.T) {
	for _, c := range []struct{ e, s, want int }{
		{8, 3, 2}, {8, 4, 4}, {8, 7, 4}, {12, 5, 4}, {8, 1, 1}, {8, 0, 0},
	} {
		if got := ShrinkWorld(c.e, c.s); got != c.want {
			t.Fatalf("ShrinkWorld(%d, %d) = %d, want %d", c.e, c.s, got, c.want)
		}
	}
}

// TestRunFaultTolerantRecoversFromCrash: a planned crash mid-run triggers
// rollback to the last checkpoint and an elastic shrink, and the run
// still completes all useful steps. The whole schedule is deterministic:
// a second identical run produces bit-identical weights and stats.
func TestRunFaultTolerantRecoversFromCrash(t *testing.T) {
	run := func() (*DistTrainer, FTStats, *trace.Recorder) {
		tr, err := NewDistTrainer(distTrainerConfig("pft", 2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan("crash:r1@s5")
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		st, err := tr.RunFaultTolerant(FTOptions{Steps: 6, CkptEvery: 3, Plan: plan, Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		return tr, st, rec
	}
	tr1, st1, rec := run()
	if st1.Steps != 6 {
		t.Fatalf("completed %d useful steps, want 6", st1.Steps)
	}
	if st1.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st1.Recoveries)
	}
	// With CkptEvery=3 the last checkpoint lands after step 2 (at step
	// counter 3); the crash during step 5 rolls back to it, so steps 3
	// and 4 run twice.
	if st1.ReplayedSteps != 2 {
		t.Fatalf("replayed %d steps, want 2", st1.ReplayedSteps)
	}
	// 4 ranks, one dead: largest divisor of 8 experts <= 3 survivors is 2.
	if st1.FinalWorld != 2 {
		t.Fatalf("final world = %d, want 2", st1.FinalWorld)
	}
	if st1.Goodput <= 0 || st1.Goodput >= 1 {
		t.Fatalf("goodput = %v, want in (0, 1)", st1.Goodput)
	}
	// Accounting identity: wall-clock decomposes exactly.
	total := st1.UsefulTime + st1.CkptTime + st1.LostTime
	if math.Abs(total-st1.WallClock) > 1e-9*st1.WallClock {
		t.Fatalf("useful %v + ckpt %v + lost %v != wall %v",
			st1.UsefulTime, st1.CkptTime, st1.LostTime, st1.WallClock)
	}
	if st1.LostTime <= 0 {
		t.Fatal("a crash mid-run must lose some work")
	}
	// Fault, checkpoint, and recovery events land in the trace as marks.
	if rec.MarkCount("fault crash=[1] step=5") != 1 {
		t.Fatalf("missing fault mark; marks: %v", rec.Marks())
	}
	if rec.MarkCount("recover world=2 step=3 spares=0") != 1 {
		t.Fatalf("missing recovery mark; marks: %v", rec.Marks())
	}

	tr2, st2, _ := run()
	weightsEqual(t, tr1, tr2, "fault-tolerant determinism")
	if st1 != st2 {
		t.Fatalf("stats diverged across identical runs:\n%+v\nvs\n%+v", st1, st2)
	}
}

// TestRunFaultTolerantSurvivesChaos drives the full stack — crashes,
// stragglers, flaky collectives, and a degraded link in one plan — and
// must finish every step without deadlock, with sane accounting.
func TestRunFaultTolerantSurvivesChaos(t *testing.T) {
	spec := "crash:r3@s2,straggler:r0@s0:x3:n4,flaky:r2@s1:t0.001:n3,link:inter@s3:x8:n2,crash:r1@s7"
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDistTrainer(distTrainerConfig("pft", 2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.RunFaultTolerant(FTOptions{Steps: 10, CkptEvery: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 10 {
		t.Fatalf("completed %d useful steps, want 10", st.Steps)
	}
	if st.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (two planned crashes)", st.Recoveries)
	}
	// First crash: 4 ranks -> 3 survivors -> world 2. Second crash kills
	// rank 1 of the remaining 2 -> world 1.
	if st.FinalWorld != 1 {
		t.Fatalf("final world = %d, want 1 after two crashes from 4", st.FinalWorld)
	}
	if math.IsNaN(st.FinalLoss) || math.IsInf(st.FinalLoss, 0) {
		t.Fatal("final loss not finite")
	}
	if st.Goodput <= 0 || st.Goodput >= 1 {
		t.Fatalf("goodput = %v", st.Goodput)
	}
}

// TestRunFaultTolerantDoubleCrashSameStep pins the lost-time accounting
// when the same step indices are rolled back twice: with only the step-0
// checkpoint, two crashes (of different ranks — a crash event fires at
// most once per rank) each roll everything back to zero, so early steps
// run three times. Every superseded attempt must accumulate into
// LostTime — counted once each, never overwritten — for the exact
// wall = useful + ckpt + lost identity to survive the double rollback.
func TestRunFaultTolerantDoubleCrashSameStep(t *testing.T) {
	run := func() (*DistTrainer, FTStats) {
		tr, err := NewDistTrainer(distTrainerConfig("pft", 2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan("crash:r1@s2,crash:r0@s4")
		if err != nil {
			t.Fatal(err)
		}
		st, err := tr.RunFaultTolerant(FTOptions{Steps: 6, CkptEvery: 0, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return tr, st
	}
	tr1, st := run()
	if st.Steps != 6 || st.Recoveries != 2 {
		t.Fatalf("steps %d recoveries %d, want 6 and 2", st.Steps, st.Recoveries)
	}
	// Both rollbacks target step 0: the first loses steps 0-1, the second
	// loses steps 0-3 (including the replays of 0-1).
	if st.ReplayedSteps != 6 {
		t.Fatalf("replayed %d steps, want 2+4=6", st.ReplayedSteps)
	}
	total := st.UsefulTime + st.CkptTime + st.LostTime
	if math.Abs(total-st.WallClock) > 1e-9*st.WallClock {
		t.Fatalf("identity broke under double rollback: useful %v + ckpt %v + lost %v != wall %v",
			st.UsefulTime, st.CkptTime, st.LostTime, st.WallClock)
	}
	// Steps 0 and 1 ran three times: two superseded attempts each must be
	// in LostTime, so lost work exceeds the partial-attempt time alone —
	// at least 6 full steps' worth (0,1 twice each plus 2,3 once) at the
	// smallest per-step time seen.
	minStep := st.UsefulTime / float64(st.Steps)
	if st.LostTime < 6*minStep*0.5 {
		t.Fatalf("lost %v too small for 6 superseded attempts (min step ~%v)", st.LostTime, minStep)
	}
	tr2, st2 := run()
	weightsEqual(t, tr1, tr2, "double-crash determinism")
	if st != st2 {
		t.Fatalf("stats diverged:\n%+v\nvs\n%+v", st, st2)
	}
}

// TestSparePromotionRestoresWorld: the same crash that shrinks the world
// to 2 without spares keeps it at 4 when the plan carries a hot spare —
// the spare is promoted into the dead slot, the run retains full-world
// token throughput, and the whole schedule stays deterministic.
func TestSparePromotionRestoresWorld(t *testing.T) {
	run := func(spec string) (*DistTrainer, FTStats) {
		tr, err := NewDistTrainer(distTrainerConfig("pft", 2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		st, err := tr.RunFaultTolerant(FTOptions{Steps: 6, CkptEvery: 3, Plan: plan, Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		if st.Recoveries == 1 && rec.MarkCount(fmt.Sprintf("recover world=%d step=3 spares=%d", st.FinalWorld, st.SparesUsed)) != 1 {
			t.Fatalf("missing recovery mark; marks: %v", rec.Marks())
		}
		return tr, st
	}
	_, shrunk := run("crash:r1@s5")
	grownA, grown := run("crash:r1@s5,spares:1")
	if shrunk.FinalWorld != 2 || shrunk.SparesUsed != 0 {
		t.Fatalf("baseline: world %d spares %d, want 2 and 0", shrunk.FinalWorld, shrunk.SparesUsed)
	}
	if grown.FinalWorld != 4 || grown.SparesUsed != 1 {
		t.Fatalf("spared: world %d spares %d, want 4 and 1", grown.FinalWorld, grown.SparesUsed)
	}
	if grown.UsefulTokens <= shrunk.UsefulTokens {
		t.Fatalf("regrow tokens %d must exceed shrink tokens %d", grown.UsefulTokens, shrunk.UsefulTokens)
	}
	for _, st := range []FTStats{shrunk, grown} {
		total := st.UsefulTime + st.CkptTime + st.LostTime
		if math.Abs(total-st.WallClock) > 1e-9*st.WallClock {
			t.Fatalf("identity broke: %+v", st)
		}
	}
	grownB, grown2 := run("crash:r1@s5,spares:1")
	weightsEqual(t, grownA, grownB, "spare-promotion determinism")
	if grown != grown2 {
		t.Fatalf("stats diverged:\n%+v\nvs\n%+v", grown, grown2)
	}
}

// TestAsyncCkptWeightParity: when every checkpoint write completes before
// the next crash (the common regime — writes are microseconds, intervals
// are steps), async and blocking checkpointing restore the same snapshot
// and must produce bit-identical final weights; async must charge no
// more checkpoint time and achieve at least blocking goodput.
func TestAsyncCkptWeightParity(t *testing.T) {
	run := func(async bool, spec string) (*DistTrainer, FTStats) {
		tr, err := NewDistTrainer(distTrainerConfig("pft", 2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := tr.RunFaultTolerant(FTOptions{Steps: 6, CkptEvery: 3, AsyncCkpt: async, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		total := st.UsefulTime + st.CkptTime + st.LostTime
		if math.Abs(total-st.WallClock) > 1e-9*st.WallClock {
			t.Fatalf("identity broke (async=%v): %+v", async, st)
		}
		return tr, st
	}
	for _, spec := range []string{"", "crash:r1@s5"} {
		blockT, blockSt := run(false, spec)
		asyncT, asyncSt := run(true, spec)
		weightsEqual(t, blockT, asyncT, "async-vs-blocking parity spec="+spec)
		if asyncSt.CkptTime > blockSt.CkptTime {
			t.Fatalf("spec %q: async ckpt time %v exceeds blocking %v", spec, asyncSt.CkptTime, blockSt.CkptTime)
		}
		if asyncSt.Goodput < blockSt.Goodput {
			t.Fatalf("spec %q: async goodput %v below blocking %v", spec, asyncSt.Goodput, blockSt.Goodput)
		}
	}
}

// TestAsyncCkptMidWriteFallback pins the crash-consistency rule: with a
// write cost far larger than a step, the step-3 snapshot's write is
// still streaming when the crash lands, so async recovery must discard
// it and fall back to the durable step-0 base — replaying 5 steps where
// blocking (which stalled for the full write) replays only 2.
func TestAsyncCkptMidWriteFallback(t *testing.T) {
	run := func(async bool) FTStats {
		tr, err := NewDistTrainer(distTrainerConfig("pft", 2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan("crash:r1@s5")
		if err != nil {
			t.Fatal(err)
		}
		st, err := tr.RunFaultTolerant(FTOptions{
			Steps: 6, CkptEvery: 3, AsyncCkpt: async, Plan: plan, CkptCost: 1.0,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := st.UsefulTime + st.CkptTime + st.LostTime
		if math.Abs(total-st.WallClock) > 1e-9*st.WallClock {
			t.Fatalf("identity broke (async=%v): %+v", async, st)
		}
		return st
	}
	if got := run(false).ReplayedSteps; got != 2 {
		t.Fatalf("blocking replayed %d steps, want 2 (rollback to step 3)", got)
	}
	if got := run(true).ReplayedSteps; got != 5 {
		t.Fatalf("async replayed %d steps, want 5 (mid-write crash falls back to step 0)", got)
	}
}

// TestMitigationSpeedsUpStragglers: with one permanent 4x straggler,
// straggler-aware capacity rebalance must actually engage (the rerouted
// run trains different weights than uniform routing), keep the final
// loss within tolerance of the unmitigated trajectory, never make the
// wall-clock worse, and stay bit-deterministic. The wall-clock check is
// not-worse rather than strictly-faster: at the numeric toy dims every
// per-expert GEMM sits on the kernel-launch floor, so capacity shifts
// cannot move simulated time here — the genuine time win is pinned at
// the flops-dominated at-scale tier by the abl-faults mitigation sweep
// (TestAblationFaultsShape).
func TestMitigationSpeedsUpStragglers(t *testing.T) {
	run := func(bound float64) (*DistTrainer, FTStats) {
		cfg := distTrainerConfig("pft", 2)
		cfg.Mitigation = bound
		tr, err := NewDistTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan("straggler:r0@s0:x4")
		if err != nil {
			t.Fatal(err)
		}
		st, err := tr.RunFaultTolerant(FTOptions{Steps: 8, CkptEvery: 0, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return tr, st
	}
	uniA, uniform := run(0)
	mitA, mitigated := run(0.5)
	if mitigated.WallClock > uniform.WallClock*(1+1e-6) {
		t.Fatalf("mitigated wall %v worse than uniform %v", mitigated.WallClock, uniform.WallClock)
	}
	// The rebalance must have engaged: rerouting shifts which tokens land
	// on which experts, so the trained weights diverge from the uniform run.
	if !weightsDiffer(uniA, mitA) {
		t.Fatal("mitigated run trained identical weights to uniform — capacity rebalance never engaged")
	}
	// The ±bound clamp keeps the loss trajectory near the uniform one.
	if rel := math.Abs(mitigated.FinalLoss-uniform.FinalLoss) / uniform.FinalLoss; rel > 0.25 {
		t.Fatalf("mitigated loss %v drifted %.0f%% from uniform %v", mitigated.FinalLoss, rel*100, uniform.FinalLoss)
	}
	mitB, mitigated2 := run(0.5)
	weightsEqual(t, mitA, mitB, "mitigation determinism")
	if mitigated != mitigated2 {
		t.Fatalf("stats diverged:\n%+v\nvs\n%+v", mitigated, mitigated2)
	}
}

// TestMitigationRejectsPadded: the padded pipeline's even all-to-all
// cannot carry per-expert capacities; the config check must say so with
// a typed option error instead of a rank panic mid-step.
func TestMitigationRejectsPadded(t *testing.T) {
	cfg := distTrainerConfig("padded", 1)
	cfg.Mitigation = 0.3
	if _, err := NewDistTrainer(cfg); err == nil {
		t.Fatal("padded + mitigation must be rejected")
	}
	cfg = distTrainerConfig("pft", 1)
	cfg.Mitigation = 1.5
	if _, err := NewDistTrainer(cfg); err == nil {
		t.Fatal("mitigation bound above 1 must be rejected")
	}
}

// TestRunFaultTolerantAllFeaturesDeterministic is the acceptance gate:
// async checkpoints, spare promotion, straggler mitigation, and a crash
// all active in one run — same plan + config twice gives bit-identical
// weights and stats, and the wall-clock identity stays exact.
func TestRunFaultTolerantAllFeaturesDeterministic(t *testing.T) {
	run := func(transport string) (*DistTrainer, FTStats) {
		cfg := distTrainerConfig(transport, 2)
		cfg.Mitigation = 0.4
		tr, err := NewDistTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParsePlan("straggler:r2@s0:x2,crash:r1@s5,spares:1")
		if err != nil {
			t.Fatal(err)
		}
		st, err := tr.RunFaultTolerant(FTOptions{Steps: 8, CkptEvery: 3, AsyncCkpt: true, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return tr, st
	}
	for _, transport := range []string{"pft", "rbd"} {
		a, st1 := run(transport)
		b, st2 := run(transport)
		if st1.FinalWorld != 4 || st1.SparesUsed != 1 {
			t.Fatalf("%s: world %d spares %d, want regrow to 4 with 1 spare", transport, st1.FinalWorld, st1.SparesUsed)
		}
		total := st1.UsefulTime + st1.CkptTime + st1.LostTime
		if math.Abs(total-st1.WallClock) > 1e-9*st1.WallClock {
			t.Fatalf("%s: identity broke: %+v", transport, st1)
		}
		weightsEqual(t, a, b, transport+" all-features determinism")
		if st1 != st2 {
			t.Fatalf("%s: stats diverged:\n%+v\nvs\n%+v", transport, st1, st2)
		}
	}
}

// TestRunFaultTolerantNoSurvivors: killing every rank is unrecoverable
// and must surface the crash error rather than loop or deadlock.
func TestRunFaultTolerantNoSurvivors(t *testing.T) {
	cfg := distTrainerConfig("pft", 1)
	cfg.World = 1
	tr, err := NewDistTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := fault.ParsePlan("crash:r0@s1")
	_, err = tr.RunFaultTolerant(FTOptions{Steps: 4, CkptEvery: 1, Plan: plan})
	if err == nil || !errors.Is(err, simrt.ErrRankCrashed) {
		t.Fatalf("want unrecoverable crash error, got %v", err)
	}
}
