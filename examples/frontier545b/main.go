// Frontier 545B: reproduce the paper's headline claim — the 545B-parameter
// Super model trains on 1024 simulated MI250X GCDs under X-MoE while every
// baseline runs out of memory (paper §5.2, Fig. 9 right).
//
//	go run ./examples/frontier545b
package main

import (
	"fmt"

	"xmoe/internal/baselines"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

func main() {
	m := topology.Frontier()
	shape := model.Super()
	fmt.Printf("model %q: %.1fB total params, %.1fB activated, %d experts x %d layers, top-%d\n",
		shape.Name, float64(shape.TotalParams())/1e9, float64(shape.ActivatedParams())/1e9,
		shape.NumExperts, shape.Layers, shape.TopK)
	fmt.Println("platform: Frontier, 1024 MI250X GCDs (128 nodes, 4 racks)")

	fmt.Println("\ntrainability across systems (global batch 1024):")
	var best baselines.SweepResult
	for _, sys := range baselines.Systems() {
		sw := baselines.Sweep(baselines.For(sys, m), shape, m, 1024, 1024, 42, true)
		if sys == baselines.XMoE {
			best = sw
		}
		if sw.OOM {
			fmt.Printf("  %-14s OOM — no swept configuration fits 64 GB per GCD\n", sys)
			continue
		}
		fmt.Printf("  %-14s %.1f TFLOPs/GPU (%.2f aggregate PFLOPs), iter %.1fs,\n",
			sys, sw.Best.TFLOPsPerGPU, sw.Best.AggPFLOPs, sw.Best.IterSeconds)
		fmt.Printf("  %-14s config: TP=%d EP=%d ZeRO-%d SSMB=%v micro-batch=%d, peak %.1f GiB/GPU\n",
			"", sw.Plan.TP, sw.Plan.EP, sw.Plan.ZeROStage, sw.Plan.SSMB, sw.MicroBatch, sw.Best.PeakMemGB)
	}
	if best.OOM {
		return
	}

	// Show why: per-GPU memory of the X-MoE plan the sweep chose with
	// each technique toggled off.
	fmt.Println("\nablation: X-MoE memory techniques on the Super model (peak GiB/GPU):")
	show := func(label string, plan parallel.Plan, c baselines.Config) {
		r := baselines.SimulateStep(c, baselines.RunSpec{
			Shape: shape, Machine: m, World: 1024, Plan: plan,
			MicroBatch: best.MicroBatch, GlobalBatch: 1024, Seed: 42, Congestion: true,
		})
		verdict := "fits"
		if r.OOM {
			verdict = "OOM"
		}
		fmt.Printf("  %-28s %6.1f GiB  (%s)\n", label, r.PeakMemGB, verdict)
	}
	cfg := baselines.For(baselines.XMoE, m)
	show("full X-MoE (PFT+SSMB)", best.Plan, cfg)
	noSSMB := best.Plan
	noSSMB.SSMB = false
	show("without SSMB", noSSMB, cfg)
	padded := cfg
	padded.Transport = transport.Padded
	padded.Kernels = moe.KernelsFallback
	show("padded pipeline (DS-style)", best.Plan, padded)
	fmt.Println("\npaper: X-MoE sustains 10.44 aggregate PFLOPs on the 545B model at 1024 GCDs")
}
