package baselines

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
)

// syncedAndPlain runs spec's layer once with the overlapped gradient sync
// and once without it, on one routing store.
func syncedAndPlain(t *testing.T, cfg Config, spec RunSpec) (synced, plain layerRun) {
	t.Helper()
	st := takeRoutings(routingKey{seed: spec.Seed, experts: spec.Shape.NumExperts, topK: spec.Shape.TopK}, spec.World)
	defer putRoutings(st)
	synced = runFullLayer(cfg, spec, true, st)
	plain = runFullLayer(cfg, spec, false, st)
	if synced.err != nil || plain.err != nil {
		t.Fatalf("layer run failed: synced %v, plain %v", synced.err, plain.err)
	}
	return synced, plain
}

// TestSyncFreeWallIsPreWaitClock is the net under SimulateStep's single
// layer run at TP = 1: the slowest rank's clock before the sync wait of
// the synced run equals the sync-free run's wall bit for bit, on every
// system, with and without activation checkpointing, at ZeRO 1 and 2, EP 8
// and 16, congestion on and off. It also pins the TP > 1 case that keeps
// the second run: there the backward's tp_bwd_allreduce queues behind the
// sync buckets, and the two clocks differ.
func TestSyncFreeWallIsPreWaitClock(t *testing.T) {
	m := topology.Frontier()
	for _, sys := range Systems() {
		cfg := For(sys, m)
		for _, actCkpt := range []bool{false, true} {
			for _, z := range []int{1, 2} {
				for _, ep := range []int{8, 16} {
					for _, congestion := range []bool{true, false} {
						spec := goldenSpec(cfg, 1, actCkpt)
						spec.Plan.ZeROStage, spec.Plan.EP, spec.Congestion = z, ep, congestion
						name := fmt.Sprintf("%v/ckpt=%t/zero%d/ep%d/congestion=%t", sys, actCkpt, z, ep, congestion)
						t.Run(name, func(t *testing.T) {
							if err := spec.Plan.Validate(); err != nil {
								t.Fatal(err)
							}
							if micro := spec.GlobalBatch / (spec.MicroBatch * spec.World); micro < 2 {
								t.Fatalf("%d micro-steps: no sync-free micro-step is priced", micro)
							}
							synced, plain := syncedAndPlain(t, cfg, spec)
							if math.Float64bits(synced.preWait) != math.Float64bits(plain.wall) {
								t.Errorf("pre-wait clock %v (%016x) != sync-free wall %v (%016x)",
									synced.preWait, math.Float64bits(synced.preWait), plain.wall, math.Float64bits(plain.wall))
							}
						})
					}
				}
			}
		}
	}

	t.Run("xmoe/medium/tp8", func(t *testing.T) {
		cfg := For(XMoE, m)
		spec := RunSpec{
			Shape: model.Medium(), Machine: m, World: 32,
			Plan: parallel.Plan{World: 32, TP: 8, EP: 8, Placement: cfg.Placement,
				SSMB: cfg.SSMB, ZeROStage: 1},
			MicroBatch: 1, GlobalBatch: 256, Seed: 7, Congestion: true, SkipMemCheck: true,
		}
		synced, plain := syncedAndPlain(t, cfg, spec)
		t.Logf("pre-wait clock %.5f s, sync-free wall %.5f s", synced.preWait, plain.wall)
		if synced.preWait == plain.wall {
			t.Errorf("pre-wait clock equals the sync-free wall (%v) at TP 8: the counter-example no longer shows why TP > 1 keeps the second run", plain.wall)
		}
	})
}

// TestOneLayerRunAtTP1 pins the layer runs a step pays: one at TP = 1,
// where the synced run's pre-wait clock prices the sync-free micro-steps,
// and with BlockingGradSync, which runs sync-free only; two at TP > 1.
func TestOneLayerRunAtTP1(t *testing.T) {
	m := topology.Frontier()
	for _, c := range []struct {
		name     string
		sys      System
		tp       int
		blocking bool
		want     int64
	}{
		{name: "xmoe", sys: XMoE, tp: 1, want: 1},
		{name: "tutel", sys: Tutel, tp: 1, want: 1},
		{name: "xmoe-blocking", sys: XMoE, tp: 1, blocking: true, want: 1},
		{name: "xmoe-tp2-ssmb", sys: XMoE, tp: 2, want: 2},
		{name: "deepspeed-ted-tp2", sys: DeepSpeedTED, tp: 2, want: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := goldenSpec(For(c.sys, m), c.tp, false)
			spec.BlockingGradSync = c.blocking
			before := layerRuns.Load()
			r := mustStep(t, c.sys, spec)
			if r.MicroSteps < 2 {
				t.Fatalf("MicroSteps = %d: no sync-free micro-step is priced", r.MicroSteps)
			}
			if n := layerRuns.Load() - before; n != c.want {
				t.Errorf("step ran the layer %d times, want %d", n, c.want)
			}
		})
	}
}
