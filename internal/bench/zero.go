package bench

import (
	"fmt"
	"io"

	"xmoe/internal/baselines"
	"xmoe/internal/memmodel"
	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// AblationZeRO measures the effect of bucketed, overlapped gradient sync
// and ZeRO sharding on the Large model: step time of the overlapped sync
// vs the blocking tail (per ZeRO stage, bucket size, transport, and EP),
// and the per-rank model-state memory each ZeRO stage buys. World = 2*EP
// so every expert has a data-parallel replica to synchronise with
// (expert-DP 2). A cell the step simulator rejects panics, as a layer the
// harness cannot run does.
func AblationZeRO(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Large()
	eps := []int{16, 64}
	stages := []int{0, 1, 2}
	bucketsMB := []int64{0, 4, 16}
	if opts.Quick {
		eps = []int{16}
		stages = []int{0, 2}
		bucketsMB = []int64{0, 16}
	}
	// One system per transport: X-MoE runs the hierarchical RBD transport
	// fwd+bwd, the flat PFT row is X-MoE over the PFT transport, and
	// DeepSpeed-MoE is the padded row.
	xmoe := baselines.For(baselines.XMoE, m)
	flatXMoE := xmoe
	flatXMoE.Transport = transport.PFT
	systems := []baselines.Config{xmoe, flatXMoE, baselines.For(baselines.DeepSpeedMoE, m)}
	step := func(cfg baselines.Config, spec baselines.RunSpec) float64 {
		r := baselines.SimulateStep(cfg, spec)
		if r.Err != nil {
			panic(r.Err)
		}
		return r.IterSeconds
	}

	var rows []Row
	for _, cfg := range systems {
		for _, ep := range eps {
			world := 2 * ep
			plan := parallel.Plan{World: world, TP: 1, EP: ep,
				Placement: cfg.Placement, SSMB: cfg.SSMB}
			states := map[int]float64{}
			for _, stage := range stages {
				plan.ZeROStage = stage
				spec := baselines.RunSpec{
					Shape: shape, Machine: m, World: world, Plan: plan,
					// GlobalBatch = dataDP keeps microSteps at 1: the cell
					// isolates one fwd+bwd step's sync exposure.
					MicroBatch: 1, GlobalBatch: world, Seed: opts.Seed,
					SkipMemCheck: true, BlockingGradSync: true,
				}
				blocking := step(cfg, spec)
				states[stage] = gib(memmodel.ModelStatesBreakdown(shape, cfg.MemSetup(plan, 1)).Total())
				key := fmt.Sprint(cfg.Transport, "/EP=", ep, "/zero=", stage, "/")
				rows = append(rows, Row{key + "blocking", "ms", blocking * 1e3, 0}, Row{key + "states", "GiB", states[stage], 0})
				for _, mb := range bucketsMB {
					spec.BlockingGradSync = false
					spec.BucketBytes = mb << 20
					overlap := step(cfg, spec)
					bucket := fmt.Sprint(key, "bucket=", mb, "MB/")
					rows = append(rows, Row{bucket + "overlap", "ms", overlap * 1e3, 0},
						Row{bucket + "speedup", "x", blocking / overlap, 0})
				}
			}
			rows = append(rows, Row{fmt.Sprint(cfg.Transport, "/EP=", ep, "/zero-2 states saving"), "GiB",
				states[0] - states[2], 0})
		}
	}
	return render(w, "abl-zero: gradient sync overlap and ZeRO sharding, Large model, expert-DP 2", rows,
		"blocking = serial gradient all-reduce/reduce-scatter tail after the last",
		"micro-step; overlap = per-layer bucketed async sync issued as each layer's",
		"dW completes, hidden under the remaining backward compute; bucket=0MB is",
		"one bucket per layer family")
}
