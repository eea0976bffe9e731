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
