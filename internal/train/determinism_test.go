package train

import (
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestMoEFFNSteadyStateDeterministic pins the pooled training block: with
// identical inputs and weights, a steady-state pass (whose transport
// intermediates are all recycled rank-arena buffers) must be
// bit-identical to the first pass of a freshly constructed block on a
// fresh cluster.
func TestMoEFFNSteadyStateDeterministic(t *testing.T) {
	cfg := moe.Config{
		NumExperts:     8,
		TopK:           2,
		HModel:         16,
		HFFN:           12,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
	x := tensor.Randn(tensor.NewRNG(2), 1, 24, cfg.HModel)
	dy := tensor.Randn(tensor.NewRNG(3), 1, 24, cfg.HModel)

	pass := func(c *simrt.Cluster, ffn *MoEFFN) (*tensor.Tensor, *tensor.Tensor, []*tensor.Tensor) {
		var out, dx *tensor.Tensor
		onRank(t, c, func(r *simrt.Rank) {
			out = ffn.Forward(r, x)
			dx = ffn.Backward(r, dy)
		})
		grads := make([]*tensor.Tensor, 0, 2*cfg.NumExperts+1)
		for _, p := range ffn.Params() {
			grads = append(grads, p.G.Clone())
			p.ZeroGrad()
		}
		return out.Clone(), dx.Clone(), grads
	}

	refC := oneRank()
	wantOut, wantDX, wantG := pass(refC, NewMoEFFN(tensor.NewRNG(11), refC, cfg, moe.DropByCapacityWeight))

	c := oneRank()
	ffn := NewMoEFFN(tensor.NewRNG(11), c, cfg, moe.DropByCapacityWeight)
	var out, dx *tensor.Tensor
	var grads []*tensor.Tensor
	for i := 0; i < 4; i++ { // 4th pass runs fully on recycled buffers
		out, dx, grads = pass(c, ffn)
	}

	eq := func(name string, a, b *tensor.Tensor) {
		t.Helper()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s: bit mismatch at %d: %v vs %v", name, i, a.Data[i], b.Data[i])
			}
		}
	}
	eq("output", wantOut, out)
	eq("dX", wantDX, dx)
	for i := range wantG {
		eq("grad", wantG[i], grads[i])
	}
}
