package rbd

import (
	"fmt"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// BenchmarkStageReplicas is the ledger rung for RBD's Stage-2 staging: one
// rank of an EP = 8 group grouping the replicas announced by its seven
// peers and itself, at the Small model's layer shape and the sweep's
// routing (8192 tokens per rank, k = 6, skew 0.6), symbolic.
func BenchmarkStageReplicas(b *testing.B) {
	const world, s = 8, 8192
	sh := model.Small()
	cfg := moe.Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: sh.HModel, HFFN: sh.HFFN,
		CapacityFactor: 1.25, BytesPerElem: 2}
	c := newCluster(world)
	d := NewDispatcher(c, c.WorldGroup(), cfg)
	states := make([]*State, world)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rt := moe.SyntheticRouting(tensor.NewRNG(42+uint64(r.ID)*31), s, cfg.NumExperts, cfg.TopK, 0.6)
		pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
		states[r.ID] = pilotsOnly(d, r, s, pft, nil, tensor.NewRNG(uint64(r.ID)), moe.PipelineOpts{})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	st := *states[0]
	for i := 0; i < b.N; i++ {
		// Each staging cuts its tables from a set of its own, as a layer
		// call's does.
		st.ct = moe.DrawCallTables()
		benchParts, _ = d.stageReplicas(ranks[0], &st)
		st.release()
	}
}

var benchParts []simrt.Part

// BenchmarkDispatchPilots is the ledger rung for Stages 0-1: all 64 ranks
// of the Large model's EP = 64 layer (4096 tokens per rank, k = 8, skew
// 0.6) selecting their pilots from pre-built PFTs and exchanging them,
// symbolic, on one warm cluster.
func BenchmarkDispatchPilots(b *testing.B) {
	const world = 64
	sh := model.Large()
	cfg := moe.Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: sh.HModel, HFFN: sh.HFFN,
		CapacityFactor: 1.25, BytesPerElem: 2}
	pfts := make([]*moe.PFT, world)
	for id := range pfts {
		rt := moe.SyntheticRouting(tensor.NewRNG(42+uint64(id)*31), sh.SeqLen, cfg.NumExperts, cfg.TopK, 0.6)
		pfts[id] = moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(sh.SeqLen), moe.DropByCapacityWeight)
	}
	c := newCluster(world)
	d := NewDispatcher(c, c.WorldGroup(), cfg)
	opts := moe.PipelineOpts{SaveForBackward: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Run(func(r *simrt.Rank) error {
			pilotsOnly(d, r, sh.SeqLen, pfts[r.ID], nil, tensor.NewRNG(uint64(r.ID)), opts).release()
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectPilots is the ledger rung for Stage 0 alone: rank 0 of
// the Large model's EP = 64 layer (4096 tokens, k = 8) selecting its
// pilots from a pre-built PFT, symbolic, on uniform and skew-0.6 routing.
func BenchmarkSelectPilots(b *testing.B) {
	const world = 64
	sh := model.Large()
	cfg := moe.Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: sh.HModel, HFFN: sh.HFFN,
		CapacityFactor: 1.25, BytesPerElem: 2}
	c := newCluster(world)
	d := NewDispatcher(c, c.WorldGroup(), cfg)
	for _, skew := range []float64{0, 0.6} {
		rt := moe.SyntheticRouting(tensor.NewRNG(42), sh.SeqLen, cfg.NumExperts, cfg.TopK, skew)
		pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(sh.SeqLen), moe.DropByCapacityWeight)
		b.Run(fmt.Sprintf("skew%.1f", skew), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := &State{pft: pft, s: sh.SeqLen, ct: moe.DrawCallTables()}
				benchMetas = d.selectPilots(st, rng, moe.PipelineOpts{})
				st.release()
			}
		})
	}
}

var benchMetas []s1Meta

// BenchmarkRBDLayer is the ledger rung for the whole layer: one symbolic
// fwd+bwd of the Large model's MoE layer at EP = 64 (4096 tokens per rank,
// k = 8, skew 0.6) on pre-built routing, one chunk and four, on a fresh
// cluster per iteration so no collective is priced from a warm memo.
func BenchmarkRBDLayer(b *testing.B) {
	const world = 64
	sh := model.Large()
	cfg := moe.Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: sh.HModel, HFFN: sh.HFFN,
		CapacityFactor: 1.25, BytesPerElem: 2}
	routings := make([]moe.Routing, world)
	for id := range routings {
		routings[id] = moe.SyntheticRouting(tensor.NewRNG(42+uint64(id)*31), sh.SeqLen, cfg.NumExperts, cfg.TopK, 0.6)
	}
	for _, chunks := range []int{1, 4} {
		b.Run(fmt.Sprintf("c%d", chunks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := newCluster(world)
				d := NewDispatcher(c, c.WorldGroup(), cfg)
				err := c.Run(func(r *simrt.Rank) error {
					res := Forward(r, d, cfg, sh.SeqLen, nil, routings[r.ID], nil, tensor.NewRNG(uint64(r.ID)),
						moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks})
					Backward(r, d, cfg, res.State, nil, nil, moe.PipelineOpts{OverlapChunks: chunks})
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
