package bench

import (
	"fmt"
	"io"

	"xmoe/internal/baselines"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// syntheticRoutingFor builds a uniform synthetic routing (the Fig. 4
// closed form assumes uniform top-k).
func syntheticRoutingFor(seed uint64, s, e, k int) moe.Routing {
	return moe.SyntheticRouting(tensor.NewRNG(seed), s, e, k, 0)
}

// Figure9Cell is one (model, system) measurement of Fig. 9.
type Figure9Cell struct {
	Model  string
	System string
	OOM    bool
	TFLOPs float64
	AggPF  float64
	Paper  float64 // paper TFLOPs/GPU; 0 = paper reports OOM
}

// Figure9MainResults regenerates Fig. 9: trainability and throughput of
// Small/Medium/Large on 256 GPUs and Super on 1024 GPUs across the four
// systems. Quick mode restricts to the Small model.
func Figure9MainResults(w io.Writer, opts Options) []Figure9Cell {
	m := topology.Frontier()
	type point struct {
		shape model.Shape
		world int
		paper map[baselines.System]float64 // 0 => OOM in the paper
	}
	points := []point{
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

	var cells []Figure9Cell
	header(w, "Figure 9: trainability and throughput (TFLOPs/GPU)")
	t := newTable("model", "system", "measured", "paper", "agg PFLOPs")
	for _, p := range points {
		batch := 1024
		for _, sys := range baselines.Systems() {
			cfg := baselines.For(sys, m)
			sw := baselines.Sweep(cfg, p.shape, m, p.world, batch, opts.Seed, true)
			cell := Figure9Cell{Model: p.shape.Name, System: cfg.Name, Paper: p.paper[sys]}
			paperStr := "OOM"
			if cell.Paper > 0 {
				paperStr = fmt.Sprintf("%.1f", cell.Paper)
			}
			if sw.OOM {
				cell.OOM = true
				t.add(p.shape.Name, cfg.Name, "OOM", paperStr, "-")
			} else {
				cell.TFLOPs = sw.Best.TFLOPsPerGPU
				cell.AggPF = sw.Best.AggPFLOPs
				t.add(p.shape.Name, cfg.Name,
					fmt.Sprintf("%.1f", cell.TFLOPs), paperStr,
					fmt.Sprintf("%.2f", cell.AggPF))
			}
			cells = append(cells, cell)
		}
	}
	t.write(w)
	var sum float64
	var n int
	for _, c := range cells {
		if !c.OOM && c.TFLOPs > 0 {
			sum += c.TFLOPs
			n++
		}
	}
	if n > 0 {
		RecordMetric("fig9_mean_tflops_per_gpu", sum/float64(n))
	}
	return cells
}

// ScalingPoint is one GPU-count measurement.
type ScalingPoint struct {
	GPUs           int
	XMoE, Tutel    float64 // TFLOPs (weak) or iteration seconds (strong)
	TutelOOM       bool
	PaperX, PaperT float64
}

// Figure10aWeakScaling regenerates Fig. 10(a): the Small model from 16 to
// 256 GPUs with the global batch scaled proportionally (256 -> 4096
// sequences), EP=8, scaling out via ZeRO-DP.
func Figure10aWeakScaling(w io.Writer, opts Options) []ScalingPoint {
	m := topology.Frontier()
	shape := model.Small()
	gpus := []int{16, 32, 64, 128, 256}
	paperX := []float64{48.26, 47.60, 45.85, 45.68, 44.48}
	paperT := []float64{40.46, 40.55, 38.53, 37.74, 37.46}
	if opts.Quick {
		gpus, paperX, paperT = gpus[:2], paperX[:2], paperT[:2]
	}

	var out []ScalingPoint
	header(w, "Figure 10a: weak scaling, Small model, EP=8 (TFLOPs/GPU)")
	t := newTable("GPUs", "batch", "X-MoE", "paper", "Tutel", "paper")
	for i, g := range gpus {
		batch := 256 * g / 16
		run := func(sys baselines.System) (float64, bool) {
			cfg := baselines.For(sys, m)
			plan := parallel.Plan{World: g, TP: 1, EP: 8, Placement: cfg.Placement,
				SSMB: cfg.SSMB, ZeROStage: 1}
			mb := baselines.MaxMicroBatch(cfg, shape, m, plan, false)
			if mb == 0 {
				return 0, true
			}
			r := baselines.SimulateStep(cfg, baselines.RunSpec{
				Shape: shape, Machine: m, World: g, Plan: plan,
				MicroBatch: mb, GlobalBatch: batch, Seed: opts.Seed, Congestion: true,
			})
			return r.TFLOPsPerGPU, r.OOM
		}
		x, _ := run(baselines.XMoE)
		tu, tuOOM := run(baselines.Tutel)
		out = append(out, ScalingPoint{GPUs: g, XMoE: x, Tutel: tu, TutelOOM: tuOOM,
			PaperX: paperX[i], PaperT: paperT[i]})
		t.add(fmt.Sprint(g), fmt.Sprint(batch),
			fmt.Sprintf("%.1f", x), fmt.Sprintf("%.1f", paperX[i]),
			fmt.Sprintf("%.1f", tu), fmt.Sprintf("%.1f", paperT[i]))
	}
	t.write(w)
	if len(out) > 0 {
		RecordMetric("fig10a_xmoe_tflops_per_gpu_max_scale", out[len(out)-1].XMoE)
	}
	return out
}

// Figure10bStrongScaling regenerates Fig. 10(b): the Medium model on
// 128-1024 GPUs at fixed global batch 2048, comparing X-MoE (EP=64)
// against Tutel (EP=128); iteration time should fall with GPU count and
// converge at 1024 as cross-rack all-to-all latency dominates.
func Figure10bStrongScaling(w io.Writer, opts Options) []ScalingPoint {
	m := topology.Frontier()
	shape := model.Medium()
	gpus := []int{128, 256, 512, 1024}
	if opts.Quick {
		gpus = gpus[:2]
	}

	var out []ScalingPoint
	header(w, "Figure 10b: strong scaling, Medium model, global batch 2048 (iteration seconds)")
	t := newTable("GPUs", "X-MoE iter(s)", "Tutel iter(s)")
	for _, g := range gpus {
		run := func(sys baselines.System, ep int) (float64, bool) {
			cfg := baselines.For(sys, m)
			plan := parallel.Plan{World: g, TP: 1, EP: ep, Placement: cfg.Placement,
				SSMB: cfg.SSMB, ZeROStage: 1}
			if plan.Validate() != nil {
				return 0, true
			}
			mb := baselines.MaxMicroBatch(cfg, shape, m, plan, false)
			if mb == 0 {
				return 0, true
			}
			r := baselines.SimulateStep(cfg, baselines.RunSpec{
				Shape: shape, Machine: m, World: g, Plan: plan,
				MicroBatch: mb, GlobalBatch: 2048, Seed: opts.Seed, Congestion: true,
			})
			return r.IterSeconds, r.OOM
		}
		x, _ := run(baselines.XMoE, 64)
		tu, tuOOM := run(baselines.Tutel, 128)
		p := ScalingPoint{GPUs: g, XMoE: x, Tutel: tu, TutelOOM: tuOOM}
		out = append(out, p)
		tuStr := fmt.Sprintf("%.2f", tu)
		if tuOOM {
			tuStr = "OOM"
		}
		t.add(fmt.Sprint(g), fmt.Sprintf("%.2f", x), tuStr)
	}
	t.write(w)
	fmt.Fprintln(w, "  paper: Tutel OOMs at 128 GPUs; X-MoE iteration time falls with scale; the")
	fmt.Fprintln(w, "  systems converge at 1024 GPUs as cross-rack a2a latency dominates")
	if len(out) > 0 {
		RecordMetric("fig10b_xmoe_iter_seconds_max_scale", out[len(out)-1].XMoE)
	}
	return out
}

// Figure14Result compares SSMB against activation checkpointing.
type Figure14Result struct {
	SSMBTFLOPs, CkptTFLOPs float64
	SSMBMemGB, CkptMemGB   float64
}

// Figure14SSMBvsCkpt regenerates Fig. 14: under similar memory budgets,
// SSMB outruns activation checkpointing because it avoids recomputation
// and the two extra backward all-to-alls.
func Figure14SSMBvsCkpt(w io.Writer, opts Options) Figure14Result {
	m := topology.Frontier()
	shape := model.Large()
	cfg := baselines.For(baselines.XMoE, m)

	run := func(ssmb, ckpt bool, tp int) baselines.StepResult {
		plan := parallel.Plan{World: 256, TP: tp, EP: 64, Placement: cfg.Placement,
			SSMB: ssmb, ZeROStage: 1}
		return baselines.SimulateStep(cfg, baselines.RunSpec{
			Shape: shape, Machine: m, World: 256, Plan: plan,
			MicroBatch: 1, GlobalBatch: 1024, Seed: opts.Seed, ActCkpt: ckpt,
		})
	}
	ssmb := run(true, false, 4)
	ckpt := run(false, true, 4)
	res := Figure14Result{
		SSMBTFLOPs: ssmb.TFLOPsPerGPU, CkptTFLOPs: ckpt.TFLOPsPerGPU,
		SSMBMemGB: ssmb.PeakMemGB, CkptMemGB: ckpt.PeakMemGB,
	}

	header(w, "Figure 14: SSMB vs activation checkpointing, Large model (TFLOPs/GPU)")
	t := newTable("strategy", "TFLOPs", "paper", "mem (GiB)")
	t.add("SSMB", fmt.Sprintf("%.1f", res.SSMBTFLOPs), "24.14", fmt.Sprintf("%.1f", res.SSMBMemGB))
	t.add("Act. Ckpt.", fmt.Sprintf("%.1f", res.CkptTFLOPs), "16.44", fmt.Sprintf("%.1f", res.CkptMemGB))
	t.write(w)
	return res
}

// Table5Row is one cross-platform measurement.
type Table5Row struct {
	Model                    string
	DSMoE, Tutel, XMoE       float64 // TFLOPs; 0 = OOM
	PaperDS, PaperTu, PaperX float64
}

// Table5CrossPlatform regenerates Table 5: the Small model (and its
// SR/LR reductions) on 8x NVIDIA A100 40GB. The full Small config OOMs on
// the baselines but trains under X-MoE; the reduced configs fit
// everywhere with comparable throughput.
func Table5CrossPlatform(w io.Writer, opts Options) []Table5Row {
	m := topology.DGXA100()
	shapes := []model.Shape{model.Small(), model.SmallSR(), model.SmallLR()}
	paper := map[string][3]float64{
		"small":    {0, 0, 46.87},
		"small-sr": {27.08, 28.26, 27.33},
		"small-lr": {52.15, 64.00, 62.51},
	}

	var rows []Table5Row
	header(w, "Table 5: cross-platform results on 8x A100 40GB (TFLOPs/GPU)")
	t := newTable("model", "DS-MoE", "paper", "Tutel", "paper", "X-MoE", "paper")
	for _, shape := range shapes {
		row := Table5Row{Model: shape.Name}
		pp := paper[shape.Name]
		row.PaperDS, row.PaperTu, row.PaperX = pp[0], pp[1], pp[2]
		vals := [3]float64{}
		for i, sys := range []baselines.System{baselines.DeepSpeedMoE, baselines.Tutel, baselines.XMoE} {
			cfg := baselines.For(sys, m)
			sw := baselines.Sweep(cfg, shape, m, 8, 64, opts.Seed, false)
			if !sw.OOM {
				vals[i] = sw.Best.TFLOPsPerGPU
			}
		}
		row.DSMoE, row.Tutel, row.XMoE = vals[0], vals[1], vals[2]
		rows = append(rows, row)
		f := func(v, p float64) (string, string) {
			ms, ps := "OOM", "OOM"
			if v > 0 {
				ms = fmt.Sprintf("%.1f", v)
			}
			if p > 0 {
				ps = fmt.Sprintf("%.1f", p)
			}
			return ms, ps
		}
		d, dp := f(row.DSMoE, row.PaperDS)
		tu, tup := f(row.Tutel, row.PaperTu)
		x, xp := f(row.XMoE, row.PaperX)
		t.add(shape.Name, d, dp, tu, tup, x, xp)
	}
	t.write(w)
	return rows
}

// Figure20Point is one depth/top-k sweep measurement.
type Figure20Point struct {
	X                  int     // layers or top-k
	DSMoE, Tutel, XMoE float64 // TFLOPs, 0 = OOM
}

// Figure20DepthTopK regenerates Appendix E (Fig. 20): throughput on 256
// GPUs as the Large-base model grows in depth (layers 8-24) and routing
// fan-out (k in 4-16). Baselines fall over as depth exceeds 16; X-MoE's
// advantage widens with k.
func Figure20DepthTopK(w io.Writer, opts Options) (depth, topk []Figure20Point) {
	m := topology.Frontier()
	layerSweep := []int{8, 12, 16, 20, 24}
	kSweep := []int{4, 8, 12, 16}
	if opts.Quick {
		layerSweep = layerSweep[:2]
		kSweep = kSweep[:2]
	}

	run := func(sys baselines.System, shape model.Shape) float64 {
		cfg := baselines.For(sys, m)
		sw := baselines.Sweep(cfg, shape, m, 256, 1024, opts.Seed, true)
		if sw.OOM {
			return 0
		}
		return sw.Best.TFLOPsPerGPU
	}

	header(w, "Figure 20 (left): throughput vs number of layers, Large base, 256 GPUs")
	t := newTable("layers", "DS-MoE", "Tutel", "X-MoE")
	for _, l := range layerSweep {
		shape := model.Large().WithLayers(l)
		p := Figure20Point{X: l,
			DSMoE: run(baselines.DeepSpeedMoE, shape),
			Tutel: run(baselines.Tutel, shape),
			XMoE:  run(baselines.XMoE, shape)}
		depth = append(depth, p)
		t.add(fmt.Sprint(l), oomOr(p.DSMoE), oomOr(p.Tutel), oomOr(p.XMoE))
	}
	t.write(w)

	// The top-k sweep fixes a depth at which the baselines still fit
	// (the paper fixes the layer count for this panel; at the full 28
	// layers every baseline OOMs per Fig. 9).
	header(w, "Figure 20 (right): throughput vs top-k, Large base (12 layers), 256 GPUs")
	t2 := newTable("top-k", "DS-MoE", "Tutel", "X-MoE", "X-MoE/Tutel")
	for _, k := range kSweep {
		shape := model.Large().WithLayers(12).WithTopK(k)
		p := Figure20Point{X: k,
			DSMoE: run(baselines.DeepSpeedMoE, shape),
			Tutel: run(baselines.Tutel, shape),
			XMoE:  run(baselines.XMoE, shape)}
		topk = append(topk, p)
		ratio := "-"
		if p.Tutel > 0 && p.XMoE > 0 {
			ratio = fmt.Sprintf("%.2fx", p.XMoE/p.Tutel)
		}
		t2.add(fmt.Sprint(k), oomOr(p.DSMoE), oomOr(p.Tutel), oomOr(p.XMoE), ratio)
	}
	t2.write(w)
	fmt.Fprintln(w, "  paper: baselines OOM beyond 16 layers; X-MoE holds >22 TFLOPs at all depths;")
	fmt.Fprintln(w, "  the X-MoE/Tutel ratio grows with k (1.12x at k=4 to 1.64x at k=16)")
	return depth, topk
}

func oomOr(v float64) string {
	if v <= 0 {
		return "OOM"
	}
	return fmt.Sprintf("%.1f", v)
}
