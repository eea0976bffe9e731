package moe

import (
	"math"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// bwdHarness runs one distributed forward (+optional backward) of the PFT
// pipeline on a 4-rank cluster with deterministic inputs. perturb, when
// non-nil, mutates rank pr's input (or weights) before the pass. It
// returns the global loss (sum of all ranks' output sums) and rank 0's
// backward result when withBackward is set.
type bwdHarness struct {
	cfg Config
	s   int
}

func (hn bwdHarness) run(t *testing.T, withBackward bool, perturb func(rankID int, x *tensor.Tensor, params *ExpertParams)) (float64, BackwardResult) {
	t.Helper()
	const world = 4
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	epr := hn.cfg.NumExperts / world

	var mu sync.Mutex
	var loss float64
	var grads BackwardResult
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(700 + r.ID))
		x := tensor.Randn(rng, 1, hn.s, hn.cfg.HModel)
		routing := SyntheticRouting(rng, hn.s, hn.cfg.NumExperts, hn.cfg.TopK, 0.6)
		params := localParams(g.IndexOf(r.ID), epr, hn.cfg.HModel, hn.cfg.HFFN)
		if perturb != nil {
			perturb(r.ID, x, params)
		}
		res := PFTForward(r, g, hn.cfg, hn.s, x, routing, params, PipelineOpts{
			DropPolicy: DropByCapacityWeight, SaveForBackward: true,
		})
		mu.Lock()
		loss += res.Output.Sum()
		mu.Unlock()
		if withBackward {
			dOut := tensor.New(hn.s, hn.cfg.HModel)
			dOut.Fill(1)
			bwd := PFTBackward(r, g, hn.cfg, res.State, dOut, params, PipelineOpts{})
			if r.ID == 0 {
				mu.Lock()
				grads = bwd
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return loss, grads
}

func TestPFTBackwardInputGradients(t *testing.T) {
	hn := bwdHarness{cfg: distConfig(8, 3), s: 10}
	_, grads := hn.run(t, true, nil)
	if grads.DX == nil || grads.DX.Rows() != hn.s {
		t.Fatal("backward produced no input gradient")
	}
	const eps = 1e-2
	for _, idx := range []int{0, 7, 23, 55, grads.DX.Len() - 1} {
		up, _ := hn.run(t, false, func(id int, x *tensor.Tensor, _ *ExpertParams) {
			if id == 0 {
				x.Data[idx] += eps
			}
		})
		down, _ := hn.run(t, false, func(id int, x *tensor.Tensor, _ *ExpertParams) {
			if id == 0 {
				x.Data[idx] -= eps
			}
		})
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(grads.DX.Data[idx])) > 6e-2 {
			t.Fatalf("dX[%d]: analytic %f vs numeric %f", idx, grads.DX.Data[idx], numeric)
		}
	}
}

func TestPFTBackwardWeightGradients(t *testing.T) {
	hn := bwdHarness{cfg: distConfig(8, 3), s: 10}
	_, grads := hn.run(t, true, nil)
	if len(grads.DW1) != 2 || len(grads.DW2) != 2 {
		t.Fatalf("expected 2 local experts' gradients, got %d/%d", len(grads.DW1), len(grads.DW2))
	}
	const eps = 1e-2
	// Perturb rank 0's local expert 0 W1 and W2 entries; the loss is
	// global because expert 0 serves tokens from every rank.
	for _, probe := range []struct {
		w     func(p *ExpertParams) *tensor.Tensor
		grad  *tensor.Tensor
		label string
	}{
		{func(p *ExpertParams) *tensor.Tensor { return p.W1[0] }, grads.DW1[0], "W1[0]"},
		{func(p *ExpertParams) *tensor.Tensor { return p.W2[0] }, grads.DW2[0], "W2[0]"},
	} {
		for _, idx := range []int{0, 13, probe.grad.Len() - 1} {
			up, _ := hn.run(t, false, func(id int, _ *tensor.Tensor, p *ExpertParams) {
				if id == 0 {
					probe.w(p).Data[idx] += eps
				}
			})
			down, _ := hn.run(t, false, func(id int, _ *tensor.Tensor, p *ExpertParams) {
				if id == 0 {
					probe.w(p).Data[idx] -= eps
				}
			})
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-float64(probe.grad.Data[idx])) > 8e-2 {
				t.Fatalf("%s[%d]: analytic %f vs numeric %f", probe.label, idx,
					probe.grad.Data[idx], numeric)
			}
		}
	}
}

func TestPFTBackwardCombineWeightGradients(t *testing.T) {
	hn := bwdHarness{cfg: distConfig(8, 3), s: 8}
	_, grads := hn.run(t, true, nil)
	if len(grads.DCombineWeights) == 0 {
		t.Fatal("no combine-weight gradients")
	}
	// With dOut = ones, dWeight[i] = sum of combineIn row i: a direct
	// spot check against the saved forward state is done implicitly by
	// the input/weight gradient checks; here assert finiteness and a
	// non-trivial signal.
	var nonZero int
	for _, v := range grads.DCombineWeights {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("combine-weight gradient not finite")
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("all combine-weight gradients are zero")
	}
}

// TestPaddedBackwardMatchesPFTBackward validates the new padded backward
// against the numerically-verified PFT backward: under the FCFS drop
// policy both pipelines retain exactly the same assignments, so dX and
// the per-expert weight gradients must agree within float tolerance.
func TestPaddedBackwardMatchesPFTBackward(t *testing.T) {
	cfg := distConfig(8, 3)
	const world, s = 4, 24
	run := func(padded bool) map[int]BackwardResult {
		c := newMoECluster(t, world)
		g := c.WorldGroup()
		epr := cfg.NumExperts / world
		grads := make(map[int]BackwardResult)
		var mu sync.Mutex
		err := c.Run(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(uint64(700 + r.ID))
			x := tensor.Randn(rng, 1, s, cfg.HModel)
			routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
			params := localParams(g.IndexOf(r.ID), epr, cfg.HModel, cfg.HFFN)
			opts := PipelineOpts{DropPolicy: DropNegativeThenPosition, SaveForBackward: true}
			dOut := tensor.New(s, cfg.HModel)
			for i := range dOut.Data {
				dOut.Data[i] = float32(i%5)*0.2 - 0.4
			}
			var bwd BackwardResult
			if padded {
				res := PaddedForward(r, g, cfg, s, x, routing, params, opts)
				bwd = PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, opts)
			} else {
				res := PFTForward(r, g, cfg, s, x, routing, params, opts)
				bwd = PFTBackward(r, g, cfg, res.State, dOut, params, opts)
			}
			mu.Lock()
			grads[r.ID] = bwd
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return grads
	}
	pft := run(false)
	pad := run(true)
	for rank := range pft {
		if !pft[rank].DX.Equal(pad[rank].DX, 1e-3) {
			t.Fatalf("rank %d: padded dX differs from PFT dX", rank)
		}
		for e := range pft[rank].DW1 {
			if !pft[rank].DW1[e].Equal(pad[rank].DW1[e], 1e-3) ||
				!pft[rank].DW2[e].Equal(pad[rank].DW2[e], 1e-3) {
				t.Fatalf("rank %d expert %d: padded weight gradients differ from PFT", rank, e)
			}
		}
	}
}

// TestBackwardMirrorsForwardCommunication checks the §4.3 accounting: the
// backward pass issues the same two all-to-alls with the same volumes as
// the forward pass (4 per layer per step in total, no extras).
func TestBackwardMirrorsForwardCommunication(t *testing.T) {
	cfg := distConfig(8, 3)
	const s, world = 64, 4
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	epr := cfg.NumExperts / world
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(900 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		params := localParams(g.IndexOf(r.ID), epr, cfg.HModel, cfg.HFFN)
		res := PFTForward(r, g, cfg, s, x, routing, params, PipelineOpts{
			DropPolicy: DropByCapacityWeight, SaveForBackward: true,
		})
		dOut := tensor.New(s, cfg.HModel)
		dOut.Fill(1)
		PFTBackward(r, g, cfg, res.State, dOut, params, PipelineOpts{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range ranks {
		fwd := rk.Trace.Total(StageDispatchA2A) + rk.Trace.Total(StageCombineA2A)
		bwd := rk.Trace.Total(StageBwdCombineA2A) + rk.Trace.Total(StageBwdDispA2A)
		if math.Abs(fwd-bwd) > 0.15*fwd {
			t.Fatalf("rank %d: backward a2a time %.6f should mirror forward %.6f", rk.ID, bwd, fwd)
		}
	}
}
