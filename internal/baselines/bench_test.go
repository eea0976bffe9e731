package baselines

import (
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
)

// BenchmarkSimulateStep is the ledger rung for one SimulateStep call: the
// X-MoE point of the repo benchmark's step_sweep workload (Small model,
// Frontier, 16 GPUs, EP 8, ZeRO-1, congestion on, the largest micro-batch
// that fits, global batch 256 — the first point of Fig. 10a).
func BenchmarkSimulateStep(b *testing.B) {
	m := topology.Frontier()
	cfg := For(XMoE, m)
	plan := parallel.Plan{World: 16, TP: 1, EP: 8, Placement: cfg.Placement, SSMB: cfg.SSMB, ZeROStage: 1}
	spec := RunSpec{Shape: model.Small(), Machine: m, World: 16, Plan: plan,
		MicroBatch:  MaxMicroBatch(cfg, model.Small(), m, plan, false),
		GlobalBatch: 256, Congestion: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = 42 + uint64(i)
		if r := SimulateStep(cfg, spec); r.Err != nil || r.OOM {
			b.Fatalf("step failed: %+v", r)
		}
	}
}
