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

// Figure11LayerBreakdown regenerates Fig. 11: the forward MoE-layer time
// breakdown of DeepSpeed-MoE vs X-MoE (RBD disabled, isolating PFT) for
// the Small model (EP=8) and the Large model (EP=64) on 256 GPUs.
func Figure11LayerBreakdown(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	points := []struct {
		shape model.Shape
		ep    int
		paper map[string]float64 // by key suffix
	}{
		{model.Small(), 8, map[string]float64{moe.StageGate: 5.7, moe.StageDispatch: 35.7, moe.StageCombine: 8.1,
			"layer time cut": 62.3}},
		{model.Large(), 64, map[string]float64{"a2a cut": 50.7}},
	}
	if opts.Quick {
		points = points[:1]
	}
	systems := []baselines.System{baselines.DeepSpeedMoE, baselines.XMoE}
	stages := []string{moe.StageGate, moe.StageDispatch, moe.StageDispatchA2A,
		moe.StageExperts, moe.StageCombineA2A, moe.StageCombine, moe.StageOthers}

	var rows []Row
	for _, p := range points {
		var fwd [2]map[string]float64 // per systems entry
		for i, sys := range systems {
			cfg := baselines.For(sys, m)
			cfg.RBD = false // isolate PFT per the paper's methodology
			cfg.SSMB = false
			plan := parallel.Plan{World: 256, TP: 1, EP: p.ep, Placement: cfg.Placement, ZeROStage: 1}
			fwd[i] = baselines.SimulateStep(cfg, baselines.RunSpec{
				Shape: p.shape, Machine: m, World: 256, Plan: plan,
				MicroBatch: 1, GlobalBatch: 1024, Seed: opts.Seed,
				// The paper measures the layer in isolation; full-model
				// residency is irrelevant here.
				SkipMemCheck: true,
			}).LayerForward
		}
		ds, x := fwd[0], fwd[1]
		stage := func(st string, d, xv float64) {
			k := p.shape.Name + "/" + st + "/"
			rows = append(rows, Row{k + systems[0].String(), "ms", d * 1e3, 0}, Row{k + systems[1].String(), "ms", xv * 1e3, 0})
			if xv > 0 {
				rows = append(rows, Row{k + "speedup", "x", d / xv, p.paper[st]})
			}
		}
		var totalDS, totalX float64
		for _, st := range stages {
			stage(st, ds[st], x[st])
			totalDS += ds[st]
			totalX += x[st]
		}
		stage("TOTAL", totalDS, totalX)
		// The attention block the step simulator runs around the MoE layer.
		for _, st := range []string{"dense_gemm", "dense_elemwise"} {
			stage(st, ds[st], x[st])
		}
		a2a := func(f map[string]float64) float64 { return f[moe.StageDispatchA2A] + f[moe.StageCombineA2A] }
		rows = append(rows,
			Row{p.shape.Name + "/layer time cut", "%", (1 - totalX/totalDS) * 100, p.paper["layer time cut"]},
			Row{p.shape.Name + "/a2a cut", "%", (1 - a2a(x)/a2a(ds)) * 100, p.paper["a2a cut"]})
	}
	return render(w, "Figure 11: forward MoE layer breakdown, DeepSpeed-MoE vs X-MoE without RBD", rows,
		"paper: experts slightly slower under sequential GEMM")
}

// Figure12RBDBreakdown regenerates Fig. 12: dispatch time with and
// without RBD for one Large-model MoE layer on 32 GPUs with EP=32
// (the paper measures 54.8% redundancy in this setting).
func Figure12RBDBreakdown(w io.Writer, opts Options) []Row {
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

	// Both columns come from the same forward-only, blocking layer, so
	// each transport's buffer instantiation includes the body's gather.
	layer := func(kind transport.Kind) map[string]float64 {
		return meanBreakdown(runLayer(layerSpec{machine: m, cfg: cfg, world: world, s: sTokens,
			kind: kind, fwdChunks: 1, seed: opts.Seed}))
	}
	with, without := layer(transport.RBD), layer(transport.PFT)
	// Dispatch-side total: instantiation + transport (exclude gate,
	// experts, combine-side stages).
	withoutDispatch := without[moe.StageDispatch] + without[moe.StageDispatchA2A]
	withDispatch := with[moe.StageDispatch] + with[rbd.StageS1Inst] +
		with[rbd.StageS1A2A] + with[rbd.StageS2Inst] +
		with[rbd.StageS2A2A] + with[rbd.StageReconstruct]

	plain, hier := fmt.Sprint(transport.PFT, "/"), fmt.Sprint(transport.RBD, "/")
	return render(w, "Figure 12: dispatch breakdown w/o RBD (pft) and w/ RBD (rbd), Large layer, 32 GPUs, EP=32", []Row{
		{plain + "buffer instantiation", "ms", without[moe.StageDispatch] * 1e3, 0},
		{hier + "buffer instantiation", "ms", (with[moe.StageDispatch] + with[rbd.StageS1Inst]) * 1e3, 0},
		{plain + "inter-node a2a", "ms", without[moe.StageDispatchA2A] * 1e3, 0},
		{hier + "inter-node a2a", "ms", with[rbd.StageS1A2A] * 1e3, 0},
		{hier + "S2 instantiation", "ms", with[rbd.StageS2Inst] * 1e3, 0},
		{hier + "S2 intra-node a2a", "ms", with[rbd.StageS2A2A] * 1e3, 0},
		{hier + "expert input reconstruction", "ms", with[rbd.StageReconstruct] * 1e3, 0},
		{plain + "dispatch total", "ms", withoutDispatch * 1e3, 0},
		{hier + "dispatch total", "ms", withDispatch * 1e3, 0},
		{"measured redundancy", "%", red * 100, 54.8},
		{"dispatch speedup", "x", withoutDispatch / withDispatch, 1.55},
	})
}
