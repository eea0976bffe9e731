package bench

// The two single-layer harnesses behind every layer-level experiment:
// runLayer drives a whole MoE layer (forward, optionally backward) of any
// transport through transport.Layer; runDispatch drives RBD's dispatch and
// combine stages alone, with no gate, experts or drop policy around them.
// Both draw rank r's routing from seed + r and its pilots from seed ^ r on
// a congestion-free cluster, so experiments that share a point share its
// bits (TestLayerHarnessGoldenBits pins them).

import (
	"xmoe/internal/fault"
	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/trace"
	"xmoe/internal/transport"
)

// layerSpec is one symbolic single-layer measurement point: a world-rank
// EP group running kind's layer of architecture cfg on s tokens per rank.
type layerSpec struct {
	machine *topology.Machine
	cfg     moe.Config
	world   int
	s       int
	kind    transport.Kind
	// fwdChunks and bwdChunks are the passes' OverlapChunks; bwdChunks 0
	// runs the forward only.
	fwdChunks, bwdChunks int
	// engine names the cost engine per NewEngine ("" = analytic).
	engine string
	// inject, when non-nil, is armed at step 0 and attached to the cluster.
	inject *fault.Injector
	// caps, when non-nil, routes with per-expert capacities (the straggler
	// rebalance's vector).
	caps []int
	seed uint64
}

// runLayer runs the point on a fresh cluster and returns its ranks, from
// which callers read clocks, busy times and traces. A transport that
// cannot run the options panics before any rank starts.
func runLayer(sp layerSpec) []*simrt.Rank {
	c := simrt.NewCluster(sp.machine, sp.world, sp.seed)
	c.Net.DisableCongestion = true
	Options{Engine: sp.engine}.applyEngine(c)
	if sp.inject != nil {
		sp.inject.Arm(0, 0)
		c.Inject = sp.inject
	}
	layer := transport.New(sp.kind, c, c.WorldGroup(), sp.cfg)
	// Each transport drops tokens as the systems that run it do
	// (baselines.For); a symbolic padded layer's clock does not depend on
	// the policy, its buffers being capacity-sized either way.
	fwd := moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: sp.bwdChunks > 0,
		OverlapChunks: sp.fwdChunks, CapacityByExpert: sp.caps}
	if sp.kind == transport.Padded {
		fwd.DropPolicy = moe.DropNegativeThenPosition
	}
	if err := layer.Check(fwd); err != nil {
		panic(err)
	}
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rt := moe.SyntheticRouting(tensor.NewRNG(sp.seed+uint64(r.ID)), sp.s, sp.cfg.NumExperts, sp.cfg.TopK, 0)
		res := layer.Forward(r, sp.s, nil, rt, nil, tensor.NewRNG(sp.seed^uint64(r.ID)), fwd)
		if fwd.SaveForBackward {
			res.State.Backward(r, nil, nil, moe.PipelineOpts{OverlapChunks: sp.bwdChunks})
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return ranks
}

// dispatchSpec is one RBD dispatch+combine measurement point.
type dispatchSpec struct {
	machine *topology.Machine
	cfg     moe.Config
	world   int
	s       int
	// capTokens is the per-expert capacity of the dispatched PFT; 0 keeps
	// every assignment.
	capTokens int
	pilots    rbd.PilotPolicy
	seed      uint64
}

// runDispatch runs RBD stages 0-2 and the combine on every rank of a fresh
// cluster and returns the ranks; callers read the stage totals they report.
func runDispatch(sp dispatchSpec) []*simrt.Rank {
	c := simrt.NewCluster(sp.machine, sp.world, sp.seed)
	c.Net.DisableCongestion = true
	d := rbd.NewDispatcher(c, c.WorldGroup(), sp.cfg)
	d.PilotPolicy = sp.pilots
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rt := moe.SyntheticRouting(tensor.NewRNG(sp.seed+uint64(r.ID)), sp.s, sp.cfg.NumExperts, sp.cfg.TopK, 0)
		pft := moe.BuildPFT(rt, sp.cfg.NumExperts, sp.capTokens, moe.DropByCapacityWeight)
		st, _ := d.Dispatch(r, pft, nil, tensor.NewRNG(sp.seed^uint64(r.ID)), moe.PipelineOpts{})
		d.Combine(r, st, nil, sp.s, moe.PipelineOpts{})
		return nil
	})
	if err != nil {
		panic(err)
	}
	return ranks
}

// meanStageTime is the named stages' charged time, summed per rank and
// averaged over ranks.
func meanStageTime(ranks []*simrt.Rank, stages ...string) float64 {
	var total float64
	for _, rk := range ranks {
		var t float64
		for _, st := range stages {
			t += rk.Trace.Total(st)
		}
		total += t
	}
	return total / float64(len(ranks))
}

// meanBreakdown is the per-stage charged time averaged over ranks.
func meanBreakdown(ranks []*simrt.Rank) map[string]float64 {
	recs := make([]*trace.Recorder, len(ranks))
	for i, rk := range ranks {
		recs[i] = rk.Trace
	}
	return trace.Merge(recs, true)
}
