package baselines

import (
	"strings"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

func TestPresetsDifferentiateSystems(t *testing.T) {
	m := topology.Frontier()
	ds := For(DeepSpeedMoE, m)
	ted := For(DeepSpeedTED, m)
	tutel := For(Tutel, m)
	x := For(XMoE, m)

	if ds.Transport != transport.Padded || ted.Transport != transport.Padded ||
		tutel.Transport != transport.Padded || x.Transport != transport.RBD {
		t.Fatal("transport presets wrong")
	}
	if ds.SupportsTP || !ted.SupportsTP || !x.SupportsTP {
		t.Fatal("TP support presets wrong")
	}
	if !x.SSMB || ds.SSMB || tutel.SSMB {
		t.Fatal("X-MoE feature flags wrong")
	}
	if tutel.CombineBytes != 4 {
		t.Fatal("Tutel on AMD must force fp32 combine buffers")
	}
	if x.DropPolicy != moe.DropByCapacityWeight || ds.DropPolicy != moe.DropNegativeThenPosition {
		t.Fatal("drop policies wrong")
	}
}

// TestMemSetupCapacityIsTheLayers: every system's memory verdicts price
// the capacity factor its simulated layer runs, for every model shape.
func TestMemSetupCapacityIsTheLayers(t *testing.T) {
	m := topology.Frontier()
	for _, sys := range Systems() {
		for _, sh := range []model.Shape{model.Small(), model.Medium(), model.Large(), model.Super()} {
			got := For(sys, m).MemSetup(parallel.Plan{World: 8, TP: 1, EP: 8}, 1).CapacityFactor
			if want := moe.LayerOf(sh).CapacityFactor; got != want {
				t.Errorf("%v %s: MemSetup capacity factor %v, LayerOf %v", sys, sh.Name, got, want)
			}
		}
	}
}

func TestTutelQuirkIsAMDOnly(t *testing.T) {
	if For(Tutel, topology.DGXA100()).CombineBytes != 0 {
		t.Fatal("fp32 combine is an AMD-specific quirk (Table 5 vs Table 4)")
	}
}

func TestSystemsStringAndOrder(t *testing.T) {
	want := []string{"DeepSpeed-MoE", "DeepSpeed-TED", "Tutel", "X-MoE"}
	for i, s := range Systems() {
		if s.String() != want[i] {
			t.Fatalf("Systems()[%d] = %s, want %s", i, s, want[i])
		}
	}
	if System(99).String() != "unknown" {
		t.Fatal("unknown system should stringify to 'unknown'")
	}
}

func TestSimulateStepRejectsBadPlans(t *testing.T) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	r := SimulateStep(cfg, RunSpec{
		Shape: model.Small(), Machine: m, World: 16,
		Plan:       parallel.Plan{World: 16, TP: 3, EP: 8}, // TP does not divide
		MicroBatch: 1, GlobalBatch: 64,
	})
	if r.Err == nil {
		t.Fatal("invalid plan must be rejected")
	}
	r = SimulateStep(cfg, RunSpec{
		Shape: model.Small(), Machine: m, World: 16,
		Plan:       parallel.Plan{World: 16, TP: 1, EP: 16, ZeROStage: 1},
		MicroBatch: 1, GlobalBatch: 64,
	})
	if r.Err == nil && !r.OOM && r.IterSeconds <= 0 {
		t.Fatal("valid step must produce time")
	}
	// EP larger than expert count is invalid (Small has 64 experts).
	bad := SimulateStep(cfg, RunSpec{
		Shape: model.Small(), Machine: m, World: 128,
		Plan:       parallel.Plan{World: 128, TP: 1, EP: 128, ZeROStage: 1},
		MicroBatch: 1, GlobalBatch: 64,
	})
	if bad.Err == nil {
		t.Fatal("EP > NumExperts must be rejected")
	}
}

// TestSimulateStepRejectsMalformedSpec: a RunSpec whose World disagrees
// with its plan's, or whose micro-batch is empty, comes back as an Err that
// names the field, before any cluster is built or layer run — not as a
// panic out of the cluster or a divide by zero in the timing model.
func TestSimulateStepRejectsMalformedSpec(t *testing.T) {
	m := topology.Frontier()
	plan := parallel.Plan{World: 16, TP: 1, EP: 16, ZeROStage: 1}
	for _, c := range []struct {
		name      string
		world, mb int
		wantInErr string
	}{
		{"world below plan", 8, 1, "World"},
		{"world above plan", 32, 1, "World"},
		{"zero micro-batch", 16, 0, "MicroBatch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := layerRuns.Load()
			var r StepResult
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("SimulateStep panicked: %v", p)
					}
				}()
				r = SimulateStep(For(XMoE, m), RunSpec{Shape: model.Small(), Machine: m, World: c.world,
					Plan: plan, MicroBatch: c.mb, GlobalBatch: 64, SkipMemCheck: true})
			}()
			if r.Err == nil || !strings.Contains(r.Err.Error(), c.wantInErr) {
				t.Errorf("Err = %v, want one naming %s", r.Err, c.wantInErr)
			}
			if n := layerRuns.Load() - before; n != 0 {
				t.Errorf("the malformed spec ran the layer %d times before it was rejected", n)
			}
		})
	}
}

func TestSimulateStepOOMVerdict(t *testing.T) {
	m := topology.Frontier()
	cfg := For(DeepSpeedMoE, m)
	// Large model on 16 GPUs cannot fit.
	r := SimulateStep(cfg, RunSpec{
		Shape: model.Large(), Machine: m, World: 16,
		Plan:       parallel.Plan{World: 16, TP: 1, EP: 16, ZeROStage: 1},
		MicroBatch: 1, GlobalBatch: 64,
	})
	if !r.OOM {
		t.Fatalf("Large on 16 GPUs should OOM, got %.1f GiB", r.PeakMemGB)
	}
	if r.IterSeconds != 0 {
		t.Fatal("OOM results carry no timing")
	}
}

func TestSimulateStepProducesBreakdown(t *testing.T) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	r := SimulateStep(cfg, RunSpec{
		Shape: model.Small(), Machine: m, World: 16,
		Plan:       parallel.Plan{World: 16, TP: 1, EP: 8, Placement: cfg.Placement, ZeROStage: 1},
		MicroBatch: 1, GlobalBatch: 256, Seed: 3,
	})
	if r.Err != nil || r.OOM {
		t.Fatalf("unexpected failure: %+v", r)
	}
	for _, stage := range []string{moe.StageGate, moe.StageExperts} {
		if r.LayerForward[stage] <= 0 {
			t.Fatalf("stage %q missing from layer breakdown", stage)
		}
	}
	if r.TFLOPsPerGPU <= 0 || r.TFLOPsPerGPU > 191.5 {
		t.Fatalf("TFLOPs %.1f outside physical range", r.TFLOPsPerGPU)
	}
	if r.MicroSteps < 1 {
		t.Fatal("micro steps must be at least 1")
	}
}

func TestMaxMicroBatchMonotoneInModelSize(t *testing.T) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	plan := parallel.Plan{World: 256, TP: 1, EP: 64, Placement: cfg.Placement, SSMB: true, ZeROStage: 1}
	small := MaxMicroBatch(cfg, model.Small(), m, plan, false)
	large := MaxMicroBatch(cfg, model.Large(), m, plan, false)
	if small < large {
		t.Fatalf("smaller model must allow at least as large a micro batch: %d vs %d", small, large)
	}
	if small == 0 {
		t.Fatal("Small model should fit at micro-batch >= 1")
	}
}

func TestMaxMicroBatchCkptIncreasesHeadroom(t *testing.T) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	plan := parallel.Plan{World: 256, TP: 1, EP: 64, Placement: cfg.Placement, ZeROStage: 1}
	noCkpt := MaxMicroBatch(cfg, model.Large(), m, plan, false)
	ckpt := MaxMicroBatch(cfg, model.Large(), m, plan, true)
	if ckpt < noCkpt {
		t.Fatal("checkpointing cannot shrink the feasible micro batch")
	}
}

func TestSweepFindsXMoEConfigForLarge(t *testing.T) {
	m := topology.Frontier()
	r := Sweep(For(XMoE, m), model.Large(), m, 256, 1024, 5, false)
	if r.OOM {
		t.Fatal("X-MoE must find a trainable Large config on 256 GPUs (Fig. 9)")
	}
	if r.Plan.EP > 256 || model.Large().NumExperts%r.Plan.EP != 0 {
		t.Fatalf("sweep returned invalid plan %+v", r.Plan)
	}
}

func TestSweepRespectsMaxEP(t *testing.T) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	cfg.MaxEP = 16
	r := Sweep(cfg, model.Small(), m, 64, 256, 5, false)
	if !r.OOM && r.Plan.EP > 16 {
		t.Fatalf("sweep ignored MaxEP: chose EP=%d", r.Plan.EP)
	}
}

func TestBackwardCostExceedsForward(t *testing.T) {
	// The iteration model charges backward as 2x compute + 1x comm; a
	// run with activation checkpointing must be strictly slower.
	m := topology.Frontier()
	cfg := For(XMoE, m)
	plan := parallel.Plan{World: 16, TP: 1, EP: 8, Placement: cfg.Placement, ZeROStage: 1}
	spec := RunSpec{Shape: model.Small(), Machine: m, World: 16, Plan: plan,
		MicroBatch: 1, GlobalBatch: 256, Seed: 4}
	plain := SimulateStep(cfg, spec)
	spec.ActCkpt = true
	ck := SimulateStep(cfg, spec)
	if ck.IterSeconds <= plain.IterSeconds {
		t.Fatalf("checkpointing must slow iterations: %.3f vs %.3f",
			ck.IterSeconds, plain.IterSeconds)
	}
}

// TestSimulateStepRBDNativeBackward pins the native RBD backward in the
// step estimator: the X-MoE (RBD) step simulates cleanly through the
// reversed hierarchical stages.
func TestSimulateStepRBDNativeBackward(t *testing.T) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	spec := RunSpec{
		Shape: model.Small(), Machine: m, World: 16,
		Plan:       parallel.Plan{World: 16, TP: 1, EP: 16, Placement: cfg.Placement, SSMB: cfg.SSMB, ZeROStage: 1},
		MicroBatch: 1, GlobalBatch: 16, Seed: 7, SkipMemCheck: true,
	}
	native := SimulateStep(cfg, spec)
	if native.Err != nil || native.IterSeconds <= 0 {
		t.Fatalf("native RBD step failed: %+v", native)
	}
}
