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

// ZeROPoint is one abl-zero measurement: a (transport, EP, stage,
// bucket) cell of the gradient-sync ablation.
type ZeROPoint struct {
	Transport transport.Kind
	EP        int
	Stage     int
	BucketMB  int64 // 0 = one bucket per layer family
	// BlockingSec and OverlapSec are iteration times with the serial
	// tail sync vs the bucketed overlapped sync.
	BlockingSec, OverlapSec float64
	// Speedup is BlockingSec / OverlapSec.
	Speedup float64
	// StatesGB is the per-rank model-state footprint at this stage.
	StatesGB float64
}

// AblationZeRO measures the tentpole's two effects on the Large model:
// step time of bucketed overlapped gradient sync vs the blocking tail
// (per ZeRO stage, bucket size, transport, and EP), and the per-rank
// model-state memory each ZeRO stage buys. World = 2*EP so every expert
// has a data-parallel replica to synchronise with (expert-DP 2).
func AblationZeRO(w io.Writer, opts Options) []ZeROPoint {
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
	// fwd+bwd, the flat PFT row is X-MoE with RBD switched off, and
	// DeepSpeed-MoE is the padded row.
	xmoe := baselines.For(baselines.XMoE, m)
	flatXMoE := xmoe
	flatXMoE.RBD = false
	systems := []baselines.Config{xmoe, flatXMoE, baselines.For(baselines.DeepSpeedMoE, m)}

	var out []ZeROPoint
	header(w, "abl-zero: gradient sync overlap and ZeRO sharding, Large model, expert-DP 2")
	t := newTable("transport", "EP", "world", "zero", "bucket", "blocking ms", "overlap ms", "speedup", "states GiB")
	for _, cfg := range systems {
		tr := cfg.Transport()
		for _, ep := range eps {
			world := 2 * ep
			plan := parallel.Plan{World: world, TP: 1, EP: ep,
				Placement: cfg.Placement, SSMB: cfg.SSMB}
			for _, stage := range stages {
				plan.ZeROStage = stage
				spec := baselines.RunSpec{
					Shape: shape, Machine: m, World: world, Plan: plan,
					// GlobalBatch = dataDP keeps microSteps at 1: the cell
					// isolates one fwd+bwd step's sync exposure.
					MicroBatch: 1, GlobalBatch: world, Seed: opts.Seed,
					SkipMemCheck: true,
				}
				spec.BlockingGradSync = true
				blocking := baselines.SimulateStep(cfg, spec)
				if blocking.Err != nil {
					fmt.Fprintf(w, "  %v EP=%d zero=%d: %v\n", tr, ep, stage, blocking.Err)
					continue
				}
				setup := cfg.MemSetup(plan, 1)
				states := memmodel.ModelStatesBreakdown(shape, setup).Total()
				for _, mb := range bucketsMB {
					spec.BlockingGradSync = false
					spec.BucketBytes = mb << 20
					overlap := baselines.SimulateStep(cfg, spec)
					if overlap.Err != nil {
						fmt.Fprintf(w, "  %v EP=%d zero=%d bucket=%dMB: %v\n", tr, ep, stage, mb, overlap.Err)
						continue
					}
					p := ZeROPoint{
						Transport: tr, EP: ep, Stage: stage, BucketMB: mb,
						BlockingSec: blocking.IterSeconds, OverlapSec: overlap.IterSeconds,
						Speedup:  blocking.IterSeconds / overlap.IterSeconds,
						StatesGB: float64(states) / (1 << 30),
					}
					out = append(out, p)
					bucketStr := "whole-layer"
					if mb > 0 {
						bucketStr = fmt.Sprintf("%dMB", mb)
					}
					t.add(tr.String(), fmt.Sprint(ep), fmt.Sprint(world), fmt.Sprint(stage), bucketStr,
						ms(p.BlockingSec), ms(p.OverlapSec),
						fmt.Sprintf("%.3fx", p.Speedup), fmt.Sprintf("%.2f", p.StatesGB))
				}
			}
		}
	}
	t.write(w)
	fmt.Fprintln(w, "  blocking = serial gradient all-reduce/reduce-scatter tail after the last")
	fmt.Fprintln(w, "  micro-step; overlap = per-layer bucketed async sync issued as each layer's")
	fmt.Fprintln(w, "  dW completes, hidden under the remaining backward compute")

	// Headline metrics: the overlap win at the largest swept EP (stage 2,
	// whole-layer buckets) per transport, and the stage-2 memory saving.
	maxEP := eps[len(eps)-1]
	var stage0GB float64
	for _, cfg := range systems {
		tr := cfg.Transport()
		for _, p := range out {
			if p.Transport == tr && p.EP == maxEP && p.Stage == 2 && p.BucketMB == 0 {
				RecordMetric(fmt.Sprintf("abl_zero_%v_ep%d_overlap_speedup", tr, maxEP), p.Speedup)
			}
			if p.Transport == tr && p.EP == maxEP && p.Stage == 0 && p.BucketMB == 0 {
				stage0GB = p.StatesGB
			}
			if p.Transport == tr && p.EP == maxEP && p.Stage == 2 && p.BucketMB == 0 && stage0GB > 0 {
				RecordMetric(fmt.Sprintf("abl_zero_%v_ep%d_stage2_states_saving_gb", tr, maxEP),
					stage0GB-p.StatesGB)
			}
		}
	}
	return out
}
