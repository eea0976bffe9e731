package baselines

import (
	"maps"
	"slices"
	"testing"

	"xmoe/internal/golden"
	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
)

// stepGolden lists every simulated float of a step result by bit pattern,
// under name/: a one-ulp drift anywhere moves a value.
func stepGolden(name string, r StepResult) golden.List {
	var got golden.List
	got.F64(name+"/iter", r.IterSeconds)
	got.F64(name+"/tflops", r.TFLOPsPerGPU)
	for _, stage := range slices.Sorted(maps.Keys(r.LayerForward)) {
		got.F64(name+"/"+stage, r.LayerForward[stage])
	}
	return got
}

// TestSimulateStepGoldenBits pins SimulateStep's output bit for bit at one
// small point per system, plus the two X-MoE paths that read a rank's
// routing more than once per layer run (the ActCkpt replay, and TP > 1
// with SSMB slices), to testdata/simulate_step.golden. The values were
// first pinned at the commit before the routing → PFT → RBD-staging path
// was made sort-free and paid once per rank; host-side work on that path
// must not move any of them. The six cases share seed 11, so they share
// draws through the routing store, and the SSMB case routes half as many
// tokens per rank, so it also meets slots of the wrong length: every case
// runs cold, checked against the file, then warm in table order and warm
// in reverse order, each checked against its cold run.
func TestSimulateStepGoldenBits(t *testing.T) {
	m := topology.Frontier()
	cases := []struct {
		name    string
		sys     System
		tp      int
		actCkpt bool
	}{
		{"xmoe", XMoE, 1, false},
		{"tutel", Tutel, 1, false},
		{"deepspeed-moe", DeepSpeedMoE, 1, false},
		{"deepspeed-ted-tp2", DeepSpeedTED, 2, false},
		{"xmoe-actckpt", XMoE, 1, true},
		{"xmoe-tp2-ssmb", XMoE, 2, false},
	}
	run := func(t *testing.T, i int) golden.List {
		tc := cases[i]
		cfg := For(tc.sys, m)
		r := SimulateStep(cfg, goldenSpec(cfg, tc.tp, tc.actCkpt))
		if r.Err != nil || r.OOM {
			t.Fatalf("step failed: %+v", r)
		}
		if r.MicroSteps < 2 {
			t.Fatalf("MicroSteps = %d: the sync-free micro-steps are not priced", r.MicroSteps)
		}
		return stepGolden(tc.name, r)
	}
	// Cold: every case draws its routing afresh.
	cold := make([]golden.List, len(cases))
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dropRoutings()
			cold[i] = run(t, i)
		})
	}
	golden.Check(t, "testdata/simulate_step.golden", slices.Concat(cold...))
	// Warm, in table order and in reverse: every case reads whatever draws
	// the case before it left in the routing store, and must match its
	// cold run.
	warm := func(t *testing.T, i int) {
		if got := run(t, i); !slices.Equal(got, cold[i]) {
			t.Errorf("warm run differs from the cold one:\n got %v\nwant %v", got, cold[i])
		}
	}
	t.Run("warm", func(t *testing.T) {
		for i, tc := range cases {
			t.Run(tc.name, func(t *testing.T) { warm(t, i) })
		}
	})
	t.Run("warm-reversed", func(t *testing.T) {
		for i, tc := range slices.Backward(cases) {
			t.Run(tc.name, func(t *testing.T) { warm(t, i) })
		}
	})
}

// goldenSpec is the point every golden case runs at: the Small model on
// 16 Frontier GPUs, EP 8, ZeRO-1, seed 11, micro-batch 1.
func goldenSpec(cfg Config, tp int, actCkpt bool) RunSpec {
	m := topology.Frontier()
	return RunSpec{
		Shape: model.Small(), Machine: m, World: 16,
		Plan: parallel.Plan{World: 16, TP: tp, EP: 8, Placement: cfg.Placement,
			SSMB: cfg.SSMB, ZeROStage: 1},
		// Global batch 64 gives four micro-steps, so both the synced and
		// the sync-free micro-steps are priced: from the synced run's
		// clocks at TP = 1, by a second run at TP = 2.
		MicroBatch: 1, GlobalBatch: 64, Seed: 11, Congestion: true,
		ActCkpt: actCkpt, SkipMemCheck: true,
	}
}

// dropRoutings empties the routing store, so the next step draws every
// rank's routing afresh.
func dropRoutings() {
	lastRoutings.Lock()
	lastRoutings.store = nil
	lastRoutings.Unlock()
}
