package rbd

import (
	"fmt"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestForwardMatchesPFTForward validates the composed RBD layer against
// the flat padding-free pipeline on identical inputs: same routing, same
// expert weights, same drop policy — outputs must agree, completing the
// §4.2 correctness argument end to end.
func TestForwardMatchesPFTForward(t *testing.T) {
	cfg := moe.Config{NumExperts: 32, TopK: 5, HModel: 10, HFFN: 6,
		CapacityFactor: 1.25, BytesPerElem: 2}
	const s, world = 24, 16 // 2 Frontier nodes

	run := func(useRBD bool) map[int]*tensor.Tensor {
		c := newCluster(world)
		g := c.WorldGroup()
		var d *Dispatcher
		if useRBD {
			d = NewDispatcher(c, g, cfg)
		}
		outs := make([]*tensor.Tensor, world)
		err := c.Run(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(6100 + uint64(r.ID))
			x := tensor.Randn(rng, 1, s, cfg.HModel)
			routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
			epr := cfg.NumExperts / world
			me := g.IndexOf(r.ID)
			params := &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
			for le := 0; le < epr; le++ {
				params.W1[le], params.W2[le] = expertWeights(me*epr+le, cfg.HModel, cfg.HFFN)
			}
			opts := moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight}
			var out *tensor.Tensor
			if useRBD {
				res := Forward(r, d, cfg, s, x, routing, params, tensor.NewRNG(42+uint64(r.ID)), opts)
				if pft := res.PFT; len(pft.TokenIDs) != pft.B() || len(pft.ExpertIDs) != pft.B() {
					return fmt.Errorf("numeric PFT has %d token and %d expert ids for %d rows", len(pft.TokenIDs), len(pft.ExpertIDs), pft.B())
				}
				out = res.Output
			} else {
				out = moe.PFTForward(r, g, cfg, s, x, routing, params, opts).Output
			}
			outs[r.ID] = out
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		m := map[int]*tensor.Tensor{}
		for i, o := range outs {
			m[i] = o
		}
		return m
	}

	withRBD := run(true)
	without := run(false)
	for rank := range without {
		if withRBD[rank] == nil || without[rank] == nil {
			t.Fatalf("rank %d produced nil output", rank)
		}
		if !withRBD[rank].Equal(without[rank], 1e-3) {
			t.Fatalf("rank %d: RBD forward differs from PFT forward", rank)
		}
	}
}

// TestForwardSymbolicTraceStages checks the RBD layer emits the Fig. 12
// trace stages and accounts memory, and that its PFT carries counts only,
// as every transport's symbolic layer does: the token ids and weights the
// pilot selection read went back with its scratch set.
func TestForwardSymbolicTraceStages(t *testing.T) {
	cfg := moe.Config{NumExperts: 32, TopK: 4, HModel: 64, HFFN: 32,
		CapacityFactor: 1.25, BytesPerElem: 2}
	c := newCluster(16)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(r.ID))
		routing := moe.SyntheticRouting(rng, 64, cfg.NumExperts, cfg.TopK, 0.5)
		res := Forward(r, d, cfg, 64, nil, routing, nil, tensor.NewRNG(uint64(r.ID)), moe.PipelineOpts{})
		if pft := res.PFT; pft.TokenIDs != nil || pft.CombineWeights != nil || pft.ExpertIDs != nil || pft.B() == 0 {
			return fmt.Errorf("symbolic PFT of %d rows has token ids %v, weights %v, expert ids %v",
				pft.B(), pft.TokenIDs != nil, pft.CombineWeights != nil, pft.ExpertIDs != nil)
		}
		for _, stage := range []string{StageS1Inst, StageS1A2A, StageS2Inst,
			StageS2A2A, StageReconstruct, StageC2A2A, StageC1A2A} {
			if r.Trace.Total(stage) <= 0 {
				return fmt.Errorf("stage %q missing from trace", stage)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.PeakMemory() <= 0 {
		t.Fatal("symbolic RBD forward must account memory")
	}
}
