package bench

import (
	"fmt"
	"io"

	"xmoe/internal/baselines"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/rbd"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// Figure11Result holds per-stage forward times (seconds) for one model
// under both systems.
type Figure11Result struct {
	Model string
	DSMoE map[string]float64
	XMoE  map[string]float64
}

// Figure11LayerBreakdown regenerates Fig. 11: the forward MoE-layer time
// breakdown of DeepSpeed-MoE vs X-MoE (RBD disabled, isolating PFT) for
// the Small model (EP=8) and the Large model (EP=64) on 256 GPUs.
func Figure11LayerBreakdown(w io.Writer, opts Options) []Figure11Result {
	m := topology.Frontier()
	type pt struct {
		shape model.Shape
		ep    int
	}
	points := []pt{{model.Small(), 8}, {model.Large(), 64}}
	if opts.Quick {
		points = points[:1]
	}

	var out []Figure11Result
	for _, p := range points {
		res := Figure11Result{Model: p.shape.Name}
		for _, sys := range []baselines.System{baselines.DeepSpeedMoE, baselines.XMoE} {
			cfg := baselines.For(sys, m)
			cfg.RBD = false // isolate PFT per the paper's methodology
			cfg.SSMB = false
			plan := parallel.Plan{World: 256, TP: 1, EP: p.ep, Placement: cfg.Placement, ZeROStage: 1}
			r := baselines.SimulateStep(cfg, baselines.RunSpec{
				Shape: p.shape, Machine: m, World: 256, Plan: plan,
				MicroBatch: 1, GlobalBatch: 1024, Seed: opts.Seed,
				// The paper measures the layer in isolation; full-model
				// residency is irrelevant here.
				SkipMemCheck: true,
			})
			if sys == baselines.XMoE {
				res.XMoE = r.LayerForward
			} else {
				res.DSMoE = r.LayerForward
			}
		}
		out = append(out, res)

		header(w, fmt.Sprintf("Figure 11: forward MoE layer breakdown, %s model (ms)", p.shape.Name))
		t := newTable("stage", "DS-MoE", "X-MoE", "speedup")
		stages := []string{moe.StageGate, moe.StageDispatch, moe.StageDispatchA2A,
			moe.StageExperts, moe.StageCombineA2A, moe.StageCombine, moe.StageOthers}
		var totalDS, totalX float64
		for _, st := range stages {
			d, x := res.DSMoE[st], res.XMoE[st]
			totalDS += d
			totalX += x
			speed := "-"
			if x > 0 {
				speed = fmt.Sprintf("%.1fx", d/x)
			}
			t.add(st, ms(d), ms(x), speed)
		}
		t.add("TOTAL", ms(totalDS), ms(totalX), fmt.Sprintf("%.1fx", totalDS/totalX))
		t.write(w)
		RecordMetric("fig11_"+p.shape.Name+"_xmoe_layer_fwd_ms", totalX*1e3)
	}
	fmt.Fprintln(w, "  paper (Small): gate 5.7x, dispatch 35.7x, combine 8.1x faster; experts slightly")
	fmt.Fprintln(w, "  slower under sequential GEMM; overall 62.3% lower layer time. (Large): a2a cut ~50.7%")
	return out
}

// Figure12Result holds the dispatch-phase breakdown with and without RBD.
type Figure12Result struct {
	Without            map[string]float64 // PFT instantiation + inter-node a2a
	With               map[string]float64 // S1/S2 stages + reconstruction
	Speedup            float64
	MeasuredRedundancy float64
}

// Figure12RBDBreakdown regenerates Fig. 12: dispatch time with and
// without RBD for one Large-model MoE layer on 32 GPUs with EP=32
// (the paper measures 54.8% redundancy in this setting).
func Figure12RBDBreakdown(w io.Writer, opts Options) Figure12Result {
	m := topology.Frontier()
	shape := model.Large()
	cfg := moe.LayerOf(shape)
	sTokens := shape.SeqLen
	if opts.Quick {
		sTokens = 512
	}
	const world = 32

	// Redundancy of rank 0's routing, with experts block-placed over the
	// world group's ranks.
	rt0 := moe.SyntheticRouting(tensor.NewRNG(opts.Seed), sTokens, cfg.NumExperts, cfg.TopK, 0)
	red := rbd.AnalyzeRedundancy(rt0, func(e int) int {
		return m.NodeOf(e / (cfg.NumExperts / world))
	}, m.NodeOf(0)).Rate()

	withTrace := meanBreakdown(runDispatch(dispatchSpec{machine: m, cfg: cfg, world: world, s: sTokens,
		capTokens: cfg.Capacity(sTokens), seed: opts.Seed}))
	withoutTrace := meanBreakdown(runLayer(layerSpec{machine: m, cfg: cfg, world: world, s: sTokens,
		kind: transport.PFT, fwdChunks: 1, seed: opts.Seed}))

	res := Figure12Result{
		Without:            withoutTrace,
		With:               withTrace,
		MeasuredRedundancy: red,
	}
	// Dispatch-side total: instantiation + transport (exclude gate,
	// experts, combine-side stages).
	withoutDispatch := withoutTrace[moe.StageDispatch] + withoutTrace[moe.StageDispatchA2A]
	withDispatch := withTrace[moe.StageDispatch] + withTrace[rbd.StageS1Inst] +
		withTrace[rbd.StageS1A2A] + withTrace[rbd.StageS2Inst] +
		withTrace[rbd.StageS2A2A] + withTrace[rbd.StageReconstruct]
	res.Speedup = withoutDispatch / withDispatch

	header(w, "Figure 12: dispatch breakdown w/ and w/o RBD, Large layer, 32 GPUs, EP=32 (ms)")
	t := newTable("stage", "w/o RBD", "w/ RBD")
	t.add("buffer instantiation", ms(withoutTrace[moe.StageDispatch]), ms(withTrace[moe.StageDispatch]+withTrace[rbd.StageS1Inst]))
	t.add("inter-node a2a", ms(withoutTrace[moe.StageDispatchA2A]), ms(withTrace[rbd.StageS1A2A]))
	t.add("S2 instantiation", "-", ms(withTrace[rbd.StageS2Inst]))
	t.add("S2 intra-node a2a", "-", ms(withTrace[rbd.StageS2A2A]))
	t.add("expert input reconstruction", "-", ms(withTrace[rbd.StageReconstruct]))
	t.add("DISPATCH TOTAL", ms(withoutDispatch), ms(withDispatch))
	t.write(w)
	fmt.Fprintf(w, "  measured redundancy %.1f%% (paper 54.8%%); dispatch speedup %.2fx (paper 1.55x)\n",
		res.MeasuredRedundancy*100, res.Speedup)
	RecordMetric("fig12_rbd_dispatch_speedup", res.Speedup)
	return res
}
