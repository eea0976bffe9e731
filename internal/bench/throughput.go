package bench

import (
	"fmt"
	"io"

	"xmoe/internal/baselines"
	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
)

// Figure9MainResults regenerates Fig. 9: trainability and throughput of
// Small/Medium/Large on 256 GPUs and Super on 1024 GPUs across the four
// systems. Quick mode restricts to the Small model.
func Figure9MainResults(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	points := []struct {
		shape model.Shape
		world int
		paper map[baselines.System]float64 // TFLOPs/GPU; 0 => OOM in the paper
	}{
		{model.Small(), 256, map[baselines.System]float64{
			baselines.DeepSpeedMoE: 20.4, baselines.DeepSpeedTED: 20.4,
			baselines.Tutel: 33.0, baselines.XMoE: 44.0}},
		{model.Medium(), 256, map[baselines.System]float64{
			baselines.DeepSpeedTED: 4.7, baselines.Tutel: 17.0, baselines.XMoE: 24.2}},
		{model.Large(), 256, map[baselines.System]float64{baselines.XMoE: 24.1}},
		{model.Super(), 1024, map[baselines.System]float64{baselines.XMoE: 10.2}},
	}
	if opts.Quick {
		points = points[:1]
	}

	var rows []Row
	var sum float64
	var n int
	for _, p := range points {
		for _, sys := range baselines.Systems() {
			sw := baselines.Sweep(baselines.For(sys, m), p.shape, m, p.world, 1024, opts.Seed, true)
			k := p.shape.Name + "/" + sys.String()
			if sw.OOM {
				rows = append(rows, Row{k, "TFLOPs", 0, p.paper[sys]})
				continue
			}
			rows = append(rows, Row{k, "TFLOPs", sw.Best.TFLOPsPerGPU, p.paper[sys]},
				Row{k + "/aggregate", "PFLOPs", sw.Best.AggPFLOPs, 0})
			if sw.Best.TFLOPsPerGPU > 0 {
				sum += sw.Best.TFLOPsPerGPU
				n++
			}
		}
	}
	if n > 0 {
		rows = append(rows, Row{"mean of trained", "TFLOPs", sum / float64(n), 0})
	}
	return render(w, "Figure 9: trainability and throughput (TFLOPs/GPU)", rows)
}

// Figure10aWeakScaling regenerates Fig. 10(a): the Small model from 16 to
// 256 GPUs with the global batch scaled proportionally (256 -> 4096
// sequences), EP=8, scaling out via ZeRO-DP.
func Figure10aWeakScaling(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Small()
	points := []struct {
		gpus           int
		paperX, paperT float64 // TFLOPs/GPU
	}{{16, 48.26, 40.46}, {32, 47.60, 40.55}, {64, 45.85, 38.53}, {128, 45.68, 37.74}, {256, 44.48, 37.46}}
	if opts.Quick {
		points = points[:2]
	}

	var rows []Row
	for _, p := range points {
		g := p.gpus
		run := func(sys baselines.System) float64 {
			cfg := baselines.For(sys, m)
			plan := parallel.Plan{World: g, TP: 1, EP: 8, Placement: cfg.Placement,
				SSMB: cfg.SSMB, ZeROStage: 1}
			mb := baselines.MaxMicroBatch(cfg, shape, m, plan, false)
			if mb == 0 {
				return 0
			}
			return baselines.SimulateStep(cfg, baselines.RunSpec{
				Shape: shape, Machine: m, World: g, Plan: plan,
				MicroBatch: mb, GlobalBatch: 256 * g / 16, Seed: opts.Seed, Congestion: true,
			}).TFLOPsPerGPU
		}
		k := fmt.Sprint("GPUs=", g, "/")
		rows = append(rows, Row{k + baselines.XMoE.String(), "TFLOPs", run(baselines.XMoE), p.paperX},
			Row{k + baselines.Tutel.String(), "TFLOPs", run(baselines.Tutel), p.paperT})
	}
	return render(w, "Figure 10a: weak scaling, Small model, EP=8, batch 16 sequences/GPU (TFLOPs/GPU)", rows)
}

// Figure10bStrongScaling regenerates Fig. 10(b): the Medium model on
// 128-1024 GPUs at fixed global batch 2048, comparing X-MoE (EP=64)
// against Tutel (EP=128); iteration time should fall with GPU count and
// converge at 1024 as cross-rack all-to-all latency dominates.
func Figure10bStrongScaling(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Medium()
	gpus := []int{128, 256, 512, 1024}
	if opts.Quick {
		gpus = gpus[:2]
	}

	var rows []Row
	for _, g := range gpus {
		run := func(sys baselines.System, ep int) float64 {
			cfg := baselines.For(sys, m)
			plan := parallel.Plan{World: g, TP: 1, EP: ep, Placement: cfg.Placement,
				SSMB: cfg.SSMB, ZeROStage: 1}
			if plan.Validate() != nil {
				return 0
			}
			mb := baselines.MaxMicroBatch(cfg, shape, m, plan, false)
			if mb == 0 {
				return 0
			}
			return baselines.SimulateStep(cfg, baselines.RunSpec{
				Shape: shape, Machine: m, World: g, Plan: plan,
				MicroBatch: mb, GlobalBatch: 2048, Seed: opts.Seed, Congestion: true,
			}).IterSeconds
		}
		k := fmt.Sprint("GPUs=", g, "/")
		rows = append(rows, Row{k + baselines.XMoE.String(), "s", run(baselines.XMoE, 64), 0},
			Row{k + baselines.Tutel.String(), "s", run(baselines.Tutel, 128), 0})
	}
	return render(w, "Figure 10b: strong scaling, Medium model, global batch 2048 (iteration seconds)", rows,
		"paper: Tutel OOMs at 128 GPUs; X-MoE iteration time falls with scale; the",
		"systems converge at 1024 GPUs as cross-rack a2a latency dominates")
}

// Figure14SSMBvsCkpt regenerates Fig. 14: under similar memory budgets,
// SSMB outruns activation checkpointing because it avoids recomputation
// and the two extra backward all-to-alls.
func Figure14SSMBvsCkpt(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Large()
	cfg := baselines.For(baselines.XMoE, m)

	run := func(ssmb, ckpt bool) baselines.StepResult {
		plan := parallel.Plan{World: 256, TP: 4, EP: 64, Placement: cfg.Placement,
			SSMB: ssmb, ZeROStage: 1}
		return baselines.SimulateStep(cfg, baselines.RunSpec{
			Shape: shape, Machine: m, World: 256, Plan: plan,
			MicroBatch: 1, GlobalBatch: 1024, Seed: opts.Seed, ActCkpt: ckpt,
		})
	}
	ssmb := run(true, false)
	ckpt := run(false, true)
	return render(w, "Figure 14: SSMB vs activation checkpointing, Large model, TP=4", []Row{
		{"SSMB", "TFLOPs", ssmb.TFLOPsPerGPU, 24.14},
		{"SSMB/peak memory", "GiB", ssmb.PeakMemGB, 0},
		{"act. ckpt", "TFLOPs", ckpt.TFLOPsPerGPU, 16.44},
		{"act. ckpt/peak memory", "GiB", ckpt.PeakMemGB, 0},
	})
}

// Table5CrossPlatform regenerates Table 5: the Small model (and its
// SR/LR reductions) on 8x NVIDIA A100 40GB. The full Small config OOMs on
// the baselines but trains under X-MoE; the reduced configs fit
// everywhere with comparable throughput.
func Table5CrossPlatform(w io.Writer, opts Options) []Row {
	m := topology.DGXA100()
	systems := []baselines.System{baselines.DeepSpeedMoE, baselines.Tutel, baselines.XMoE}
	paper := map[string][3]float64{ // TFLOPs/GPU per systems entry; 0 = OOM
		"small":    {0, 0, 46.87},
		"small-sr": {27.08, 28.26, 27.33},
		"small-lr": {52.15, 64.00, 62.51},
	}

	var rows []Row
	for _, shape := range []model.Shape{model.Small(), model.SmallSR(), model.SmallLR()} {
		for i, sys := range systems {
			sw := baselines.Sweep(baselines.For(sys, m), shape, m, 8, 64, opts.Seed, false)
			var v float64
			if !sw.OOM {
				v = sw.Best.TFLOPsPerGPU
			}
			rows = append(rows, Row{shape.Name + "/" + sys.String(), "TFLOPs", v, paper[shape.Name][i]})
		}
	}
	return render(w, "Table 5: cross-platform results on 8x A100 40GB (TFLOPs/GPU)", rows)
}

// Figure20DepthTopK regenerates Appendix E (Fig. 20): throughput on 256
// GPUs as the Large-base model grows in depth (layers 8-24) and routing
// fan-out (k in 4-16). Baselines fall over as depth exceeds 16; X-MoE's
// advantage widens with k.
func Figure20DepthTopK(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	layerSweep := []int{8, 12, 16, 20, 24}
	kSweep := []int{4, 8, 12, 16}
	if opts.Quick {
		layerSweep = layerSweep[:2]
		kSweep = kSweep[:2]
	}
	paperRatio := map[int]float64{4: 1.12, 16: 1.64} // X-MoE/Tutel at top-k

	var rows []Row
	// point appends one TFLOPs row per system (0 = OOM) and returns them.
	point := func(coord string, shape model.Shape) map[baselines.System]float64 {
		tflops := map[baselines.System]float64{}
		for _, sys := range []baselines.System{baselines.DeepSpeedMoE, baselines.Tutel, baselines.XMoE} {
			if sw := baselines.Sweep(baselines.For(sys, m), shape, m, 256, 1024, opts.Seed, true); !sw.OOM {
				tflops[sys] = sw.Best.TFLOPsPerGPU
			}
			rows = append(rows, Row{coord + "/" + sys.String(), "TFLOPs", tflops[sys], 0})
		}
		return tflops
	}
	var minX float64
	for i, l := range layerSweep {
		if x := point(fmt.Sprint("layers=", l), model.Large().WithLayers(l))[baselines.XMoE]; i == 0 || x < minX {
			minX = x
		}
	}
	rows = append(rows, Row{"min over layers/X-MoE", "TFLOPs", minX, 22})

	// The top-k sweep fixes a depth at which the baselines still fit
	// (the paper fixes the layer count for this panel; at the full 28
	// layers every baseline OOMs per Fig. 9).
	for _, k := range kSweep {
		coord := fmt.Sprint("k=", k)
		tf := point(coord, model.Large().WithLayers(12).WithTopK(k))
		if tf[baselines.Tutel] > 0 && tf[baselines.XMoE] > 0 {
			rows = append(rows, Row{coord + "/X-MoE over Tutel", "x", tf[baselines.XMoE] / tf[baselines.Tutel], paperRatio[k]})
		}
	}
	return render(w, "Figure 20: throughput vs layers, and vs top-k at 12 layers, Large base, 256 GPUs", rows,
		"paper: baselines OOM beyond 16 layers; X-MoE holds its throughput at all depths;",
		"the X-MoE/Tutel ratio grows with k")
}
