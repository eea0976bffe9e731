package memmodel

import (
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// liveLayerTags runs one symbolic forward of an MoE layer of shape sh on an
// EP group of ep ranks, each holding s tokens of skewed routing, and
// returns every rank's MemTracker high-water mark by tag: the bytes each
// buffer held before the forward released it.
func liveLayerTags(t *testing.T, sh model.Shape, ep, s int, padded bool, opts moe.PipelineOpts) []map[string]int64 {
	t.Helper()
	c := simrt.NewCluster(topology.Frontier(), ep, 5)
	g := c.WorldGroup()
	cfg := moe.LayerOf(sh)
	forward := moe.PFTForward
	if padded {
		forward = moe.PaddedForward
	}
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		routing := moe.SyntheticRouting(tensor.NewRNG(900+uint64(r.ID)), s, sh.NumExperts, sh.TopK, 0.8)
		forward(r, g, cfg, s, nil, routing, nil, opts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]map[string]int64, len(ranks))
	for _, r := range ranks {
		tags[r.ID] = r.Dev().Mem.PeakByTag()
	}
	return tags
}

// TestMoELayerMatchesLiveMemTracker holds MoELayer to what the simulated
// pipelines charge their memory trackers. A padded layer's mask, dispatch,
// combine and intermediate buffers equal the formulas exactly under all
// three baseline profiles (the fallback frameworks' dense mask, Tutel's
// sparse dispatcher, and Tutel's fp32 combine buffers on AMD); a PFT
// layer's dispatch and combine buffers and ERI-arrays stay within the
// formulas' bound of min(S·k, E·C) rows, whatever the routing skew.
func TestMoELayerMatchesLiveMemTracker(t *testing.T) {
	sh := model.Shape{HModel: 64, HFFN: 32, NumExperts: 16, TopK: 4}
	const ep, s = 4, 96
	setup := func(p Pipeline) Setup {
		return Setup{Pipeline: p, CapacityFactor: 1.25, ElemBytes: 2}
	}
	for _, tc := range []struct {
		name    string
		kernels moe.KernelProfile
		combine int
	}{{"fallback", moe.KernelsFallback, 0}, {"vendor", moe.KernelsVendor, 0}, {"vendor-fp32-combine", moe.KernelsVendor, 4}} {
		st := setup(PipelinePadded)
		st.CombineBytes, st.NoDenseMask = tc.combine, tc.kernels == moe.KernelsVendor
		want := MoELayer(sh, st, s)
		opts := moe.PipelineOpts{Kernels: tc.kernels, CombineBytes: tc.combine, DropPolicy: moe.DropNegativeThenPosition}
		for id, got := range liveLayerTags(t, sh, ep, s, true, opts) {
			for _, f := range []struct {
				name      string
				got, want int64
			}{
				{"mask+mask_interm", got["mask"] + got["mask_interm"], want.Mask},
				{"A_dispatch", got["A_dispatch"], want.ADispatch},
				{"A_combine", got["A_combine"], want.ACombine},
				{"A0_interm", got["A0_interm"], want.AInterm0},
				{"A1_interm", got["A1_interm"], want.AInterm1},
			} {
				if f.got != f.want {
					t.Errorf("padded/%s rank %d: live %s = %d B, MoELayer says %d B", tc.name, id, f.name, f.got, f.want)
				}
			}
		}
	}

	want := MoELayer(sh, setup(PipelinePFT), s)
	for id, got := range liveLayerTags(t, sh, ep, s, false, moe.PipelineOpts{}) {
		if got["dispatch_in"] > want.ADispatch || got["A_combine"] > want.ACombine || got["eri"] > want.ERI {
			t.Errorf("pft rank %d: live dispatch_in/A_combine/eri %d/%d/%d B exceed MoELayer's %d/%d/%d B", id,
				got["dispatch_in"], got["A_combine"], got["eri"], want.ADispatch, want.ACombine, want.ERI)
		}
		if got["dispatch_in"] == 0 {
			t.Errorf("pft rank %d: no dispatch_in charged", id)
		}
	}
}
