package memmodel

import (
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// liveLayerTags runs one symbolic forward of the st.Transport layer of
// shape sh, with st's kernels and combine element size, on an EP group of
// ep ranks, each holding s tokens of skewed routing, and returns every
// rank's MemTracker high-water mark by tag: the bytes each buffer held
// before the forward released it.
func liveLayerTags(t *testing.T, sh model.Shape, st Setup, ep, s int) []map[string]int64 {
	t.Helper()
	c := simrt.NewCluster(topology.Frontier(), ep, 5)
	cfg := moe.LayerOf(sh)
	cfg.CapacityFactor = st.CapacityFactor
	layer := transport.New(st.Transport, c, c.WorldGroup(), cfg)
	opts := moe.PipelineOpts{Kernels: st.Kernels, CombineBytes: st.CombineBytes}
	if err := layer.Check(opts); err != nil {
		t.Fatal(err)
	}
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		routing := moe.SyntheticRouting(tensor.NewRNG(900+uint64(r.ID)), s, sh.NumExperts, sh.TopK, 0.8)
		layer.Forward(r, s, nil, routing, nil, tensor.NewRNG(700+uint64(r.ID)), opts)
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

// liveField is one buffer a layer charged next to the MoELayer term that
// prices it.
type liveField struct {
	name      string
	got, want int64
}

// liveFields pairs the tags a transport k layer charges with their
// MoELayer terms: the padded layer's mask, buffers and intermediates; the
// padding-free body's dispatch input, intermediates and ERI-arrays, and
// PFT's combine buffer (RBD combines from its own staging buffers).
func liveFields(k transport.Kind, got map[string]int64, want MoEBreakdown) []liveField {
	f := []liveField{{"A0_interm", got["A0_interm"], want.AInterm0}, {"A1_interm", got["A1_interm"], want.AInterm1}}
	switch k {
	case transport.Padded:
		return append(f, liveField{"mask+mask_interm", got["mask"] + got["mask_interm"], want.Mask},
			liveField{"A_dispatch", got["A_dispatch"], want.ADispatch}, liveField{"A_combine", got["A_combine"], want.ACombine})
	case transport.PFT:
		f = append(f, liveField{"A_combine", got["A_combine"], want.ACombine})
	}
	return append(f, liveField{"dispatch_in", got["dispatch_in"], want.ADispatch}, liveField{"eri", got["eri"], want.ERI})
}

// TestMoELayerMatchesLiveMemTracker holds MoELayer to what the layer its
// Setup names charges its memory trackers. A padded layer's mask,
// dispatch, combine and intermediate buffers equal the formulas exactly
// under all three baseline profiles (the fallback frameworks' dense mask,
// Tutel's sparse dispatcher, and Tutel's fp32 combine buffers on AMD); a
// PFT or RBD layer's buffers stay within the formulas' bound of
// min(S·k, E·C) rows, whatever the routing skew. RBD's staging buffers
// have no term: the model prices RBD as PFT.
func TestMoELayerMatchesLiveMemTracker(t *testing.T) {
	sh := model.Shape{HModel: 64, HFFN: 32, NumExperts: 16, TopK: 4}
	const ep, s = 4, 96
	for _, tc := range []struct {
		name string
		st   Setup
	}{
		{"padded/fallback", Setup{Transport: transport.Padded, Kernels: moe.KernelsFallback}},
		{"padded/vendor", Setup{Transport: transport.Padded, Kernels: moe.KernelsVendor}},
		{"padded/vendor-fp32-combine", Setup{Transport: transport.Padded, Kernels: moe.KernelsVendor, CombineBytes: 4}},
		{"pft", Setup{Transport: transport.PFT}},
		{"rbd", Setup{Transport: transport.RBD}},
	} {
		tc.st.CapacityFactor = 1.25
		padded := tc.st.Transport == transport.Padded
		want := MoELayer(sh, tc.st, s)
		for id, got := range liveLayerTags(t, sh, tc.st, ep, s) {
			for _, f := range liveFields(tc.st.Transport, got, want) {
				if f.got > f.want || (padded && f.got != f.want) {
					t.Errorf("%s rank %d: live %s = %d B, MoELayer says %d B", tc.name, id, f.name, f.got, f.want)
				}
			}
			if !padded && got["dispatch_in"] == 0 {
				t.Errorf("%s rank %d: no dispatch_in charged", tc.name, id)
			}
		}
	}
}
