package parallel

import (
	"fmt"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

func TestPlanValidate(t *testing.T) {
	good := Plan{World: 64, TP: 2, EP: 8, ZeROStage: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Plan{
		{World: 0, TP: 1, EP: 1},
		{World: 64, TP: 3, EP: 8},
		{World: 64, TP: 2, EP: 5},
		{World: 64, TP: 2, EP: 8, ZeROStage: 3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %d should be invalid", i)
		}
	}
}

func TestPlanDegrees(t *testing.T) {
	p := Plan{World: 64, TP: 4, EP: 16}
	if p.DP() != 16 || p.ExpertDP() != 4 {
		t.Fatalf("DP=%d ExpertDP=%d", p.DP(), p.ExpertDP())
	}
}

// checkPartition fails unless groups partition [0, world) into groups of
// size ranks each.
func checkPartition(t *testing.T, name string, groups [][]int, world, size int) {
	t.Helper()
	seen := make([]bool, world)
	for _, g := range groups {
		if len(g) != size {
			t.Fatalf("%s: group %v has %d ranks, want %d", name, g, len(g), size)
		}
		for _, r := range g {
			if r < 0 || r >= world || seen[r] {
				t.Fatalf("%s: invalid partition %v", name, groups)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("%s: rank %d missing", name, r)
		}
	}
}

func TestGroupConstructionsPartitionWorld(t *testing.T) {
	for _, placement := range []Placement{EPFirst, DPFirst} {
		p := Plan{World: 64, TP: 2, EP: 8, Placement: placement}
		checkPlanGroups(t, p)
	}
}

// checkPlanGroups checks that each of p's four group constructions
// partitions its ranks into groups of the plan's stated degree.
func checkPlanGroups(t *testing.T, p Plan) {
	t.Helper()
	checkPartition(t, "TP", p.TPGroups(), p.World, p.TP)
	checkPartition(t, "DP", p.DPGroups(), p.World, p.DP())
	checkPartition(t, "EP", p.EPGroups(), p.World, p.EP)
	checkPartition(t, "ExpertDP", p.ExpertDPGroups(), p.World, p.ExpertDP())
}

// FuzzPlanGroups checks that every plan Validate accepts partitions its
// ranks into TP, DP, EP and expert-DP groups: disjoint, covering, and of
// the plan's stated sizes. The seeds are the EP group shapes the RBD
// node-slot test walks (world 8–64, EP a power of two, both placements),
// at TP 1 and 2.
func FuzzPlanGroups(f *testing.F) {
	for _, world := range []int{8, 16, 32, 64} {
		for ep := 1; ep <= world; ep *= 2 {
			for _, placement := range []Placement{EPFirst, DPFirst} {
				for _, tp := range []int{1, 2} {
					f.Add(uint16(world), uint16(tp), uint16(ep), uint8(placement))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, world, tp, ep uint16, placement uint8) {
		p := Plan{World: int(world), TP: int(tp), EP: int(ep), Placement: Placement(placement)}
		if p.Validate() != nil {
			return
		}
		checkPlanGroups(t, p)
	})
}

func TestEPFirstVsDPFirstShape(t *testing.T) {
	// Appendix C.1's 64-GPU example: 8 experts, EP=8, 8 GPUs per node.
	m := topology.Frontier()
	epf := Plan{World: 64, EP: 8, TP: 1, Placement: EPFirst}
	dpf := Plan{World: 64, EP: 8, TP: 1, Placement: DPFirst}

	// EP-first: each EP group fits in one node (all experts co-located).
	for _, g := range epf.EPGroups() {
		node := m.NodeOf(g[0])
		for _, r := range g {
			if m.NodeOf(r) != node {
				t.Fatal("EP-first group must stay within a node")
			}
		}
	}
	// DP-first: each expert-DP group (replicas of the same experts) fits
	// in one node.
	for _, g := range dpf.ExpertDPGroups() {
		node := m.NodeOf(g[0])
		for _, r := range g {
			if m.NodeOf(r) != node {
				t.Fatal("DP-first replica group must stay within a node")
			}
		}
	}
	// And DP-first EP groups must span nodes (one expert set across the
	// machine).
	spansNodes := false
	for _, g := range dpf.EPGroups() {
		for _, r := range g[1:] {
			if m.NodeOf(r) != m.NodeOf(g[0]) {
				spansNodes = true
			}
		}
	}
	if !spansNodes {
		t.Fatal("DP-first EP groups should span nodes")
	}
}

// expertWeightsFor returns deterministic weights for global expert e.
func expertWeightsFor(e, h, f int) (*tensor.Tensor, *tensor.Tensor) {
	rng := tensor.NewRNG(uint64(3000 + e))
	return tensor.Randn(rng, 0.05, h, f), tensor.Randn(rng, 0.05, f, h)
}

// tokenRange is the routing of tokens [lo, hi) of rt, aliasing its arrays.
func tokenRange(rt moe.Routing, lo, hi int) moe.Routing {
	k := rt.K()
	return moe.Routing{S: hi - lo, Experts: rt.Experts[lo*k : hi*k],
		Weights: rt.Weights[lo*k : hi*k], Logits: rt.Logits[lo*k : hi*k]}
}

// TestSSMBForwardMatchesUnshardedReference runs an MoE block under SSMB
// (TP=4 ranks sharing one duplicated sequence, acting as EP=4) and checks
// the all-gathered output equals the direct per-token reference — the
// correctness half of §4.3's claim that MoE ops are token-wise.
func TestSSMBForwardMatchesUnshardedReference(t *testing.T) {
	const (
		world = 4
		s     = 20
	)
	cfg := moe.Config{NumExperts: 8, TopK: 3, HModel: 10, HFFN: 6, CapacityFactor: 100, BytesPerElem: 2}
	c := simrt.NewCluster(topology.Frontier(), world, 5)
	c.Net.DisableCongestion = true
	g := c.WorldGroup() // acts as both the TP group and the EP group
	epr := cfg.NumExperts / world

	// The sequence and its routing are shared by all TP ranks
	// (tensor-parallel duplication).
	seqRNG := tensor.NewRNG(2024)
	x := tensor.Randn(seqRNG, 1, s, cfg.HModel)
	routing := moe.SyntheticRouting(seqRNG, s, cfg.NumExperts, cfg.TopK, 0.6)

	// Reference: full-sequence per-token expert computation.
	fullPFT := moe.BuildPFT(routing, cfg.NumExperts, 0, moe.DropByCapacityWeight)
	want := tensor.New(s, cfg.HModel)
	for i := range fullPFT.TokenIDs {
		tok, e, w := fullPFT.TokenIDs[i], fullPFT.ExpertIDs[i], fullPFT.CombineWeights[i]
		w1, w2 := expertWeightsFor(e, cfg.HModel, cfg.HFFN)
		xi := tensor.FromSlice(x.Row(tok), 1, cfg.HModel)
		hid := tensor.MatMul(xi, w1)
		tensor.GeLU(hid)
		y := tensor.MatMul(hid, w2)
		dst := want.Row(tok)
		for j, v := range y.Data {
			dst[j] += w * v
		}
	}

	err := c.Run(func(r *simrt.Rank) error {
		params := &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
		me := g.IndexOf(r.ID)
		for le := 0; le < epr; le++ {
			params.W1[le], params.W2[le] = expertWeightsFor(me*epr+le, cfg.HModel, cfg.HFFN)
		}
		out := SSMBForward(r, g, s, cfg.HModel, cfg.BytesPerElem, x.Clone(),
			func(lo, hi int, shard *tensor.Tensor) *tensor.Tensor {
				shardRouting := tokenRange(routing, lo, hi)
				res := moe.PFTForward(r, g, cfg, hi-lo, shard, shardRouting, params,
					moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight})
				return res.Output
			})
		if !out.Equal(want, 1e-3) {
			return fmt.Errorf("rank %d: SSMB output differs from unsharded reference", r.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSSMBReducesActivationMemory checks the memory half of §4.3: with
// sequence sharding, the per-rank A_dispatch/A_combine footprint drops by
// the TP factor.
func TestSSMBReducesActivationMemory(t *testing.T) {
	cfg := moe.Config{NumExperts: 8, TopK: 4, HModel: 256, HFFN: 64, CapacityFactor: 100, BytesPerElem: 2}
	const s = 512
	run := func(ssmb bool) int64 {
		c := simrt.NewCluster(topology.Frontier(), 4, 5)
		c.Net.DisableCongestion = true
		g := c.WorldGroup()
		err := c.Run(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(77) // same routing on all ranks (TP duplication)
			routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.3)
			body := func(lo, hi int) {
				shardRouting := tokenRange(routing, lo, hi)
				moe.PFTForward(r, g, cfg, hi-lo, nil, shardRouting, nil,
					moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight})
			}
			if ssmb {
				SSMBForward(r, g, s, cfg.HModel, cfg.BytesPerElem, nil,
					func(lo, hi int, _ *tensor.Tensor) *tensor.Tensor {
						body(lo, hi)
						return nil
					})
			} else {
				body(0, s)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.PeakMemory()
	}
	with := run(true)
	without := run(false)
	if float64(with) > 0.45*float64(without) {
		t.Fatalf("SSMB peak %d should be well under half of unsharded %d (TP=4)", with, without)
	}
}

// TestSSMBBackwardMatchesUnshardedGradient completes the Fig. 8
// round-trip: SSMB forward + backward must yield the same input gradient
// as the unsharded pipeline. The MoE block's per-shard backward runs the
// full distributed PFTBackward.
func TestSSMBBackwardMatchesUnshardedGradient(t *testing.T) {
	const (
		world = 4
		s     = 16
	)
	cfg := moe.Config{NumExperts: 8, TopK: 3, HModel: 10, HFFN: 6, CapacityFactor: 100, BytesPerElem: 2}
	c := simrt.NewCluster(topology.Frontier(), world, 5)
	c.Net.DisableCongestion = true
	g := c.WorldGroup()
	epr := cfg.NumExperts / world

	seqRNG := tensor.NewRNG(808)
	x := tensor.Randn(seqRNG, 1, s, cfg.HModel)
	routing := moe.SyntheticRouting(seqRNG, s, cfg.NumExperts, cfg.TopK, 0.6)

	dFullGrads := make([]*tensor.Tensor, world)
	err := c.Run(func(r *simrt.Rank) error {
		params := &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
		me := g.IndexOf(r.ID)
		for le := 0; le < epr; le++ {
			params.W1[le], params.W2[le] = expertWeightsFor(me*epr+le, cfg.HModel, cfg.HFFN)
		}
		// Forward with shard-state capture.
		states := map[int]*moe.PFTFwdState{}
		SSMBForward(r, g, s, cfg.HModel, cfg.BytesPerElem, x.Clone(),
			func(lo, hi int, shard *tensor.Tensor) *tensor.Tensor {
				shardRouting := tokenRange(routing, lo, hi)
				res := moe.PFTForward(r, g, cfg, hi-lo, shard, shardRouting, params,
					moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true})
				states[lo] = res.State
				return res.Output
			})
		// Backward with a fixed upstream gradient.
		dOut := tensor.New(s, cfg.HModel)
		for i := range dOut.Data {
			dOut.Data[i] = float32(i%7) * 0.1
		}
		dX := SSMBBackward(r, g, s, cfg.HModel, cfg.BytesPerElem, dOut,
			func(lo, hi int, dShard *tensor.Tensor) *tensor.Tensor {
				return moe.PFTBackward(r, g, cfg, states[lo], dShard, params,
					moe.PipelineOpts{}).DX
			})
		dFullGrads[r.ID] = dX
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All TP ranks must agree on the reconstructed full gradient.
	for id := 1; id < world; id++ {
		if !dFullGrads[id].Equal(dFullGrads[0], 1e-4) {
			t.Fatalf("rank %d's gathered gradient differs from rank 0's", id)
		}
	}
	if dFullGrads[0].MaxAbs() == 0 {
		t.Fatal("gradient is identically zero")
	}
}
