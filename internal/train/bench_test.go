package train

import (
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// BenchmarkMoEFFNForwardBackward measures the numeric training stack's MoE
// block: router GEMM + softmax/top-k, then the PFT transport's forward and
// backward on a one-rank cluster, and the router's softmax backward — the
// steady-state inner loop of the loss-validation runs.
func BenchmarkMoEFFNForwardBackward(b *testing.B) {
	cfg := moe.Config{
		NumExperts:     8,
		TopK:           2,
		HModel:         64,
		HFFN:           32,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
	rng := tensor.NewRNG(11)
	c := oneRank()
	ffn := NewMoEFFN(rng, c, cfg, moe.DropByCapacityWeight)
	x := tensor.Randn(rng, 1, 128, cfg.HModel)
	dy := tensor.New(128, cfg.HModel)
	dy.Fill(1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onRank(b, c, func(r *simrt.Rank) {
			ffn.Forward(r, x)
			ffn.Backward(r, dy)
		})
		for _, p := range ffn.Params() {
			p.ZeroGrad()
		}
	}
}

// BenchmarkAttentionForwardBackward measures the dense attention block.
func BenchmarkAttentionForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(12)
	att := NewAttention(rng, 64)
	x := tensor.Randn(rng, 1, 128, 64)
	dy := tensor.New(128, 64)
	dy.Fill(1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		att.Forward(x)
		att.Backward(dy)
		for _, p := range att.Params() {
			p.ZeroGrad()
		}
	}
}

// benchTrainerConfig is the numeric benchmark's trainer (train_numeric):
// world 8, 16 experts top-4, H 128, F 64, 512 tokens a rank, C = 2,
// ZeRO-1, momentum 0.9.
func benchTrainerConfig(transport string) DistConfig {
	return DistConfig{
		MoE: moe.Config{NumExperts: 16, TopK: 4, HModel: 128, HFFN: 64,
			CapacityFactor: 1.25, BytesPerElem: 2},
		World: 8, Tokens: 512, LR: 1e-2, Seed: 42,
		Transport: transport, ZeROStage: 1, Momentum: 0.9,
		Opts: moe.PipelineOpts{OverlapChunks: 2},
	}
}

// warmSteps is how many steps a trainer takes before its arenas are in
// steady state.
const warmSteps = 3

// warmTrainer builds a benchTrainerConfig trainer and runs its warm-up
// steps, after which the rank arenas hold every buffer a step takes.
func warmTrainer(tb testing.TB, transport string) *DistTrainer {
	tb.Helper()
	tr, err := NewDistTrainer(benchTrainerConfig(transport))
	if err != nil {
		tb.Fatal(err)
	}
	for range warmSteps {
		if _, err := tr.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// BenchmarkDistTrainerStep measures one steady-state DistTrainer.Step at
// the numeric benchmark's shape, per transport: the host cost of
// train_numeric's operation, one trainer at a time.
func BenchmarkDistTrainerStep(b *testing.B) {
	for _, transport := range []string{"pft", "rbd"} {
		b.Run(transport, func(b *testing.B) {
			tr := warmTrainer(b, transport)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
