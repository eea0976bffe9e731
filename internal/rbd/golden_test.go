package rbd

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/trace"
)

// blockingGolden is what one fwd+bwd produced at the commit that still had
// a second body for it: the separate blocking body per pipeline (PR 18) for
// the OverlapChunks <= 1 rows, the split-buffer overlapped RBD forward
// (PR 23) for the c4 rows. Hashes are FNV-1a over bit patterns, ranks in
// ascending order.
type blockingGolden struct {
	// maxClock is Float64bits(simrt.MaxClock); clocks hashes every rank's
	// final Clock and its Clock when OnDWReady fired.
	maxClock, clocks uint64
	// events hashes every rank's full span list (name, start, duration, and
	// whether the span is an overlapped one) in recorded order; stages
	// hashes, per stage name, every rank's Trace.Breakdown() entry.
	events  uint64
	stages  map[string]uint64
	peakMem int64
	// tensors hashes Output, DX, DW1, DW2 and DCombineWeights (numeric only).
	tensors uint64
}

// bitHash is FNV-1a over bit patterns.
type bitHash struct{ h hash.Hash64 }

func newBitHash() bitHash { return bitHash{fnv.New64a()} }

func (b bitHash) u64(v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	b.h.Write(buf[:])
}
func (b bitHash) f64(v float64) { b.u64(math.Float64bits(v)) }
func (b bitHash) str(s string)  { b.h.Write([]byte(s)); b.u64(uint64(len(s))) }
func (b bitHash) f32s(vs []float32) {
	b.u64(uint64(len(vs)))
	for _, v := range vs {
		b.u64(uint64(math.Float32bits(v)))
	}
}
func (b bitHash) tensor(t *tensor.Tensor) {
	if t == nil {
		b.u64(0)
		return
	}
	b.f32s(t.Data)
}

// runBlockingLayer executes one fwd+bwd of the transport with
// OverlapChunks = chunks in both passes on a fresh Frontier cluster and
// digests everything the simulation produced. tutel runs the layer under
// Tutel's profile (vendor kernels, float32 combine buffers).
func runBlockingLayer(t *testing.T, transport string, numeric bool, chunks int, tutel bool) blockingGolden {
	t.Helper()
	// Symbolic: four nodes, strongly skewed routing. Numeric: two nodes,
	// a layer small enough to multiply out in milliseconds.
	world, s, skew := 32, 512, 0.8
	cfg := moe.Config{NumExperts: 64, TopK: 6, HModel: 1024, HFFN: 512, CapacityFactor: 1.25, BytesPerElem: 2}
	if numeric {
		world, s, skew = 16, 24, 0.6
		cfg = bwdCfg
	}
	c := newCluster(world)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	epr := cfg.NumExperts / world
	drop := moe.DropByCapacityWeight
	if transport == "padded" {
		drop = moe.DropNegativeThenPosition
	}
	hookClock := make([]float64, world)
	tensors := make([]uint64, world)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(7300 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, skew)
		var x, dOut *tensor.Tensor
		var params *moe.ExpertParams
		if numeric {
			x = tensor.Randn(rng, 1, s, cfg.HModel)
			params = &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
			for le := 0; le < epr; le++ {
				params.W1[le], params.W2[le] = expertWeights(g.IndexOf(r.ID)*epr+le, cfg.HModel, cfg.HFFN)
			}
			dOut = tensor.New(s, cfg.HModel)
			for i := range dOut.Data {
				dOut.Data[i] = float32(i%7)*0.15 - 0.4
			}
		}
		fwd := moe.PipelineOpts{DropPolicy: drop, SaveForBackward: true, OverlapChunks: chunks}
		if tutel {
			fwd.Kernels, fwd.CombineBytes = moe.KernelsVendor, 4
		}
		bwd := fwd
		bwd.SaveForBackward = false
		bwd.OnDWReady = func() { hookClock[r.ID] = r.Clock }
		var out *tensor.Tensor
		var grads moe.BackwardResult
		switch transport {
		case "pft":
			res := moe.PFTForward(r, g, cfg, s, x, routing, params, fwd)
			out, grads = res.Output, moe.PFTBackward(r, g, cfg, res.State, dOut, params, bwd)
		case "padded":
			res := moe.PaddedForward(r, g, cfg, s, x, routing, params, fwd)
			out, grads = res.Output, moe.PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, bwd)
		case "rbd":
			res := Forward(r, d, cfg, s, x, routing, params, tensor.NewRNG(91+uint64(r.ID)), fwd)
			out, grads = res.Output, Backward(r, d, cfg, res.State, dOut, params, bwd)
		}
		h := newBitHash()
		h.tensor(out)
		h.tensor(grads.DX)
		for le := range grads.DW1 {
			h.tensor(grads.DW1[le])
			h.tensor(grads.DW2[le])
		}
		h.f32s(grads.DCombineWeights)
		tensors[r.ID] = h.h.Sum64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got := blockingGolden{maxClock: math.Float64bits(simrt.MaxClock(ranks)), peakMem: c.PeakMemory()}
	clocks, events, tens := newBitHash(), newBitHash(), newBitHash()
	recorders := make([]*trace.Recorder, world)
	for _, r := range ranks {
		recorders[r.ID] = r.Trace
	}
	stageHash := map[string]bitHash{}
	for id, rec := range recorders {
		if ob := rec.OverlapBreakdown(); chunks <= 1 && len(ob) != 0 {
			t.Errorf("%s rank %d: OverlapChunks <= 1 recorded overlapped spans %v", transport, id, ob)
		}
		for _, ev := range rec.Events() {
			events.str(ev.Name)
			events.f64(ev.Start)
			events.f64(ev.Dur)
			if ev.Overlap {
				events.u64(1)
			}
		}
		events.u64(uint64(id))
		for name := range rec.Breakdown() {
			if _, ok := stageHash[name]; !ok {
				stageHash[name] = newBitHash()
			}
		}
	}
	for _, r := range ranks {
		clocks.f64(r.Clock)
		clocks.f64(hookClock[r.ID])
	}
	// Second pass so a stage a rank never charged hashes as zero there.
	got.stages = map[string]uint64{}
	for name, h := range stageHash {
		for _, rec := range recorders {
			h.f64(rec.Breakdown()[name])
		}
		got.stages[name] = h.h.Sum64()
	}
	for _, v := range tensors {
		tens.u64(v)
	}
	got.clocks, got.events = clocks.h.Sum64(), events.h.Sum64()
	if numeric {
		got.tensors = tens.h.Sum64()
	}
	return got
}

// literal renders g as the Go literal the table below holds.
func (g blockingGolden) literal() string {
	names := make([]string, 0, len(g.stages))
	for name := range g.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "{maxClock: %#x, clocks: %#x, events: %#x, peakMem: %d, tensors: %#x, stages: map[string]uint64{",
		g.maxClock, g.clocks, g.events, g.peakMem, g.tensors)
	for i, name := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q: %#x", name, g.stages[name])
	}
	sb.WriteString("}}")
	return sb.String()
}

// TestBlockingGoldenBits pins OverlapChunks <= 1 of all three transports to
// the bits the deleted blocking bodies produced, and OverlapChunks = 4 of
// RBD (the c4 rows) to the bits of its deleted split-buffer overlapped
// forward: per-rank clocks, the OnDWReady instant, every recorded and every
// overlapped span (none at one chunk), every Breakdown stage, peak memory
// and (numeric) every output and gradient. The pft and padded c4 rows and
// the padded tutel row (Tutel's vendor kernels and float32 combine buffers)
// were recorded from the separate padded forward and backward bodies, before
// the padded transport ran through the PFT body. The c3 rows (three chunks
// split parts unevenly, which exercises the ChunkRange floors and RBD's
// merge buckets) were recorded before RBD's forward and backward ran through
// the moe body as an exchange. Each row was recorded from the code it names,
// before that code was folded away; the values are the reference now, so a
// mismatch is a model change that must be declared, not re-recorded.
func TestBlockingGoldenBits(t *testing.T) {
	for _, row := range []struct {
		transport string
		chunks    int
		onlySym   bool // no numeric row
		tutel     bool
	}{{"pft", 0, false, false}, {"padded", 0, false, false}, {"rbd", 0, false, false}, {"rbd", 4, false, false},
		{"pft", 4, false, false}, {"padded", 4, false, false}, {"padded", 0, true, true},
		{"pft", 3, false, false}, {"padded", 3, false, false}, {"rbd", 3, false, false}} {
		for _, numeric := range []bool{false, true} {
			if numeric && row.onlySym {
				continue
			}
			name := row.transport + "/symbolic"
			if numeric {
				name = row.transport + "/numeric"
			}
			if row.chunks > 1 {
				name += fmt.Sprintf("/c%d", row.chunks)
			}
			if row.tutel {
				name += "/tutel"
			}
			t.Run(name, func(t *testing.T) {
				got := runBlockingLayer(t, row.transport, numeric, row.chunks, row.tutel)
				if w := blockingGoldens[name]; got.literal() != w.literal() {
					t.Errorf("golden mismatch\n got: %q: %s,\nwant: %q: %s,", name, got.literal(), name, w.literal())
				}
			})
		}
	}
}

var blockingGoldens = map[string]blockingGolden{
	"pft/symbolic": {maxClock: 0x3f5a7bfdb11193d5, clocks: 0x6827eca947583fb4, events: 0x97c0ec3c90de4a93, peakMem: 20303044, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0x2caeec23683e28b8, "a2a_dispatch": 0xdb92efeb41be50f2, "bwd_a2a_combine": 0xc23f28d6c8a6265e,
			"bwd_a2a_dispatch": 0x63cfc890dba84db4, "bwd_combine": 0x4b46f1ae880a0813, "bwd_dispatch": 0x4b46f1ae880a0813,
			"bwd_experts": 0x618208d5b1c55693, "combine": 0x4b46f1ae880a0813, "dispatch": 0x4b46f1ae880a0813,
			"experts": 0x854cbfbf9af05ed7, "gate": 0x50087090fbd8c665, "others": 0x4122d5eed0b48263,
		}},
	"pft/numeric": {maxClock: 0x3f3846cae811a2f0, clocks: 0x8637167e090f9ac9, events: 0x86b1ee3b10f3014a, peakMem: 10624, tensors: 0xd5dce9d0adbdef22,
		stages: map[string]uint64{
			"a2a_combine": 0x22f15104cf841edb, "a2a_dispatch": 0x7cdafe26b3e6ec8c, "bwd_a2a_combine": 0x99d2a86706e123,
			"bwd_a2a_dispatch": 0x23e135b8f4a87b73, "bwd_combine": 0xb1c558431638395a, "bwd_dispatch": 0xb1c558431638395a,
			"bwd_experts": 0x9d874005302b9c9e, "combine": 0xb1c558431638395a, "dispatch": 0xb1c558431638395a,
			"experts": 0x9e2cf4a66206d2ac, "gate": 0x650ce7d49dc02645, "others": 0x4f5155be13dee13c,
		}},
	"padded/symbolic": {maxClock: 0x3f7197bbb90d4dc0, clocks: 0xea779eaaa13c5be5, events: 0xdd7ac9c4a998c3a5, peakMem: 45088768, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0x5494e1dab94a85e5, "a2a_dispatch": 0xd0104c1069c64a25, "bwd_a2a_combine": 0xfe9ecca4c767ade5,
			"bwd_a2a_dispatch": 0xd4f1a2e78dc48ae5, "bwd_combine": 0x514ecb940f397de5, "bwd_dispatch": 0x514ecb940f397de5,
			"bwd_experts": 0xb7f9e6e38e15125, "combine": 0x514ecb940f397de5, "dispatch": 0x514ecb940f397de5,
			"experts": 0xf07fe03e58eab725, "gate": 0xa61d3664fb4942e5, "others": 0xa42c30f79be29725,
		}},
	"padded/numeric": {maxClock: 0x3f4ec78853a13598, clocks: 0xe6044d37f4c8885, events: 0xf6909d244736ca65, peakMem: 52320, tensors: 0x96e3b67277685604,
		stages: map[string]uint64{
			"a2a_combine": 0x8d81932dcb3929e5, "a2a_dispatch": 0x8d81932dcb3929e5, "bwd_a2a_combine": 0x8d81932dcb3929e5,
			"bwd_a2a_dispatch": 0x8d81932dcb3929e5, "bwd_combine": 0xe209ba3e135323c5, "bwd_dispatch": 0xe209ba3e135323c5,
			"bwd_experts": 0xc54b9ee1cd9e2e5, "combine": 0xe209ba3e135323c5, "dispatch": 0xe209ba3e135323c5,
			"experts": 0xf95a5a457c51ba5, "gate": 0xa0aec53dedce57e5, "others": 0x1829557e2557b0e5,
		}},
	"rbd/symbolic": {maxClock: 0x3f59477e0bab3980, clocks: 0xc1f6d40f8da29c56, events: 0xea91ded8550e4ea, peakMem: 28646452, tensors: 0x0,
		stages: map[string]uint64{
			"bwd_experts": 0x618208d5b1c55693, "dispatch": 0x4b46f1ae880a0813, "experts": 0x854cbfbf9af05ed7,
			"gate": 0x50087090fbd8c665, "rbd_bwd_comb_merge": 0xd06e6844d18d0700, "rbd_bwd_comb_s1_a2a": 0x400db346fd6a77e,
			"rbd_bwd_comb_s2_a2a": 0xfbffbfce738e8009, "rbd_bwd_comb_scatter": 0x4c8a3d7a41746fe, "rbd_bwd_s1_a2a": 0x207d62e04e2af148,
			"rbd_bwd_s1_scatter": 0x4c8a3d7a41746fe, "rbd_bwd_s2_a2a": 0xdefa976fa0b309fe, "rbd_bwd_s2_reduce": 0x2acb5c7f66c8284c,
			"rbd_comb_merge": 0x2acb5c7f66c8284c, "rbd_comb_s1_a2a": 0x5a690015a782fcbf, "rbd_comb_s2_a2a": 0x4bd8be7dc9337193,
			"rbd_comb_scatter": 0x4c8a3d7a41746fe, "rbd_reconstruct": 0x6f9b0e5d0cf55dcc, "rbd_s1_a2a": 0x20749da192f6744f,
			"rbd_s1_inst": 0x4c8a3d7a41746fe, "rbd_s2_a2a": 0x5dae6216fd6c837f, "rbd_s2_inst": 0x198882a6ab0df0ce,
		}},
	"rbd/numeric": {maxClock: 0x3f3dc83b8ff9b941, clocks: 0xf3b3f2c9cae12680, events: 0x5297667c9c5b972d, peakMem: 14244, tensors: 0xa4e89a5d26446cfe,
		stages: map[string]uint64{
			"bwd_experts": 0x9d874005302b9c9e, "dispatch": 0xb1c558431638395a, "experts": 0x9e2cf4a66206d2ac,
			"gate": 0x650ce7d49dc02645, "rbd_bwd_comb_merge": 0x2edef3b906fbd097, "rbd_bwd_comb_s1_a2a": 0x575590c5911f24f5,
			"rbd_bwd_comb_s2_a2a": 0xd6f47a8c56d51d4a, "rbd_bwd_comb_scatter": 0x474324f8608da882, "rbd_bwd_s1_a2a": 0x20626a306f83199b,
			"rbd_bwd_s1_scatter": 0x474324f8608da882, "rbd_bwd_s2_a2a": 0x7c90d6f69e48ece7, "rbd_bwd_s2_reduce": 0xc2310b143d9d9bd4,
			"rbd_comb_merge": 0xc2310b143d9d9bd4, "rbd_comb_s1_a2a": 0x63661b7a8d7774be, "rbd_comb_s2_a2a": 0x9b7d6fc813778031,
			"rbd_comb_scatter": 0x474324f8608da882, "rbd_reconstruct": 0xfe15afa7c4560fdc, "rbd_s1_a2a": 0xe90eff132fa59d80,
			"rbd_s1_inst": 0x474324f8608da882, "rbd_s2_a2a": 0x98b58a560d9700ff, "rbd_s2_inst": 0x3714ae57dbb453c9,
		}},
	"rbd/symbolic/c4": {maxClock: 0x3f67176a5c2a9f7e, clocks: 0xeb88f63e83b32cb, events: 0xf897bab58548af6f, peakMem: 28646452, tensors: 0x0,
		stages: map[string]uint64{
			"bwd_experts": 0x47c92bf790be4f28, "dispatch": 0x4b46f1ae880a0813, "experts": 0xa252da1889ae4825,
			"gate": 0x50087090fbd8c665, "rbd_bwd_comb_merge": 0x60df154ab1e265f0, "rbd_bwd_comb_s1_a2a": 0x24f28bbb197113a4,
			"rbd_bwd_comb_s2_a2a": 0xd80ac658736bb725, "rbd_bwd_comb_scatter": 0xbe187da514f4b65f, "rbd_bwd_s1_a2a": 0x680bbdc735655718,
			"rbd_bwd_s1_scatter": 0x4c8a3d7a41746fe, "rbd_bwd_s2_a2a": 0xd80ac658736bb725, "rbd_bwd_s2_reduce": 0x2acb5c7f66c8284c,
			"rbd_comb_merge": 0x2f47352e88cca73f, "rbd_comb_s1_a2a": 0xdef0154682feaa8a, "rbd_comb_s2_a2a": 0x54676c4dfa5fde91,
			"rbd_comb_scatter": 0x4c8a3d7a41746fe, "rbd_reconstruct": 0x4fc2d9c65d89961f, "rbd_s1_a2a": 0xc6fa1c0e959995ba,
			"rbd_s1_inst": 0xbe187da514f4b65f, "rbd_s2_a2a": 0xd80ac658736bb725, "rbd_s2_inst": 0x198882a6ab0df0ce,
		}},
	"rbd/numeric/c4": {maxClock: 0x3f4f8d96c66413c4, clocks: 0x342363374626302c, events: 0x994adc92f32be390, peakMem: 14244, tensors: 0xa4e89a5d26446cfe,
		stages: map[string]uint64{
			"bwd_experts": 0xeb43660bff126166, "dispatch": 0xb1c558431638395a, "experts": 0xcd3f5439046b8fe6,
			"gate": 0x650ce7d49dc02645, "rbd_bwd_comb_merge": 0xbbcc7843d55ec60f, "rbd_bwd_comb_s1_a2a": 0xb8b9a4c931329094,
			"rbd_bwd_comb_s2_a2a": 0x8421ae126c7ced25, "rbd_bwd_comb_scatter": 0xf31befec3b116be5, "rbd_bwd_s1_a2a": 0xad5b7fd9c5ee90be,
			"rbd_bwd_s1_scatter": 0x474324f8608da882, "rbd_bwd_s2_a2a": 0x8421ae126c7ced25, "rbd_bwd_s2_reduce": 0xc2310b143d9d9bd4,
			"rbd_comb_merge": 0x22acec19ff3c37bd, "rbd_comb_s1_a2a": 0xbbf19fa6d116dfeb, "rbd_comb_s2_a2a": 0x1b78f2ad8c9a5c7d,
			"rbd_comb_scatter": 0x474324f8608da882, "rbd_reconstruct": 0xe8395d74771cedc3, "rbd_s1_a2a": 0x90698e78d6ca8ead,
			"rbd_s1_inst": 0xf31befec3b116be5, "rbd_s2_a2a": 0x8421ae126c7ced25, "rbd_s2_inst": 0x3714ae57dbb453c9,
		}},
	"pft/symbolic/c4": {maxClock: 0x3f64afa47224e35d, clocks: 0x98830151a3a8926a, events: 0x31c99736cef32392, peakMem: 20303044, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0x6e0db9cbe152305b, "a2a_dispatch": 0x2487bce494463590, "bwd_a2a_combine": 0x14b3e913b66ddac0,
			"bwd_a2a_dispatch": 0xd888976bb1cb6cf5, "bwd_combine": 0xe205125fb5b9b652, "bwd_dispatch": 0x4b46f1ae880a0813,
			"bwd_experts": 0x74cf5502ca045a72, "combine": 0x4b46f1ae880a0813, "dispatch": 0x4b46f1ae880a0813,
			"experts": 0x52c2cb0ff3609f09, "gate": 0x50087090fbd8c665, "others": 0x2b8489719f80c8f0,
		}},
	"pft/numeric/c4": {maxClock: 0x3f4a243cb512ac45, clocks: 0x20d26c68301be4a9, events: 0xd97a8b09fcd0097a, peakMem: 10624, tensors: 0xd5dce9d0adbdef22,
		stages: map[string]uint64{
			"a2a_combine": 0x9221c33f0053df7f, "a2a_dispatch": 0x406c922ef30e3968, "bwd_a2a_combine": 0x52c7f0b6455873a9,
			"bwd_a2a_dispatch": 0xf585ad7cfe1d131, "bwd_combine": 0xb1af97bde5de6dd5, "bwd_dispatch": 0xb1c558431638395a,
			"bwd_experts": 0x9b901d107c656a96, "combine": 0xb1c558431638395a, "dispatch": 0xb1c558431638395a,
			"experts": 0x21513801973b6a7f, "gate": 0x650ce7d49dc02645, "others": 0x58cc51fa79850f3,
		}},
	"padded/symbolic/c4": {maxClock: 0x3f708a484fb86386, clocks: 0x95c43e0c840c4e25, events: 0xea4db51754b1c0e5, peakMem: 45088768, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0xbc9ca85049585365, "a2a_dispatch": 0xd80ac658736bb725, "bwd_a2a_combine": 0xd80ac658736bb725,
			"bwd_a2a_dispatch": 0x96fb2ba054299b25, "bwd_combine": 0x137029177ed28025, "bwd_dispatch": 0x514ecb940f397de5,
			"bwd_experts": 0xcf5b72dd212072a5, "combine": 0x514ecb940f397de5, "dispatch": 0x514ecb940f397de5,
			"experts": 0x7d9d06936665b265, "gate": 0xa61d3664fb4942e5, "others": 0x59188ae64ed36425,
		}},
	"padded/numeric/c4": {maxClock: 0x3f5dcaa10fe5537c, clocks: 0xa27043d66f3c7625, events: 0x22a425397eaf4885, peakMem: 52320, tensors: 0x96e3b67277685604,
		stages: map[string]uint64{
			"a2a_combine": 0x6684b6cd71c16ae5, "a2a_dispatch": 0x8421ae126c7ced25, "bwd_a2a_combine": 0x8421ae126c7ced25,
			"bwd_a2a_dispatch": 0x4569f7edf5729fa5, "bwd_combine": 0xb62e49b34f4ca0a5, "bwd_dispatch": 0xe209ba3e135323c5,
			"bwd_experts": 0xd7f4e2872847fb25, "combine": 0xe209ba3e135323c5, "dispatch": 0xe209ba3e135323c5,
			"experts": 0xbeb9768998f3cfc5, "gate": 0xa0aec53dedce57e5, "others": 0x312da6f73197a565,
		}},
	"padded/symbolic/tutel": {maxClock: 0x3f66b10c829d74d8, clocks: 0x8da0d278fe24d525, events: 0x66a0f60f5ab343c5, peakMem: 40419328, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0x5494e1dab94a85e5, "a2a_dispatch": 0xd0104c1069c64a25, "bwd_a2a_combine": 0xfe9ecca4c767ade5,
			"bwd_a2a_dispatch": 0xfe9ecca4c767ade5, "bwd_combine": 0xba3a58bc4d5bcfe5, "bwd_dispatch": 0xba3a58bc4d5bcfe5,
			"bwd_experts": 0xb7f9e6e38e15125, "combine": 0x13185e0a0672125, "dispatch": 0xba3a58bc4d5bcfe5,
			"experts": 0xf07fe03e58eab725, "gate": 0xfe1fea1fe9f64565, "others": 0xab082fda312c9fe5,
		}},
	"pft/symbolic/c3": {maxClock: 0x3f611b2895a31ba4, clocks: 0x9cb236f5c4c1aa3e, events: 0xaf1b91fa40c6855, peakMem: 20303044, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0x14339a70acc8aa20, "a2a_dispatch": 0xcf83a073a03eed39, "bwd_a2a_combine": 0xb97a52d886c971bc,
			"bwd_a2a_dispatch": 0x50c3acf718e0c75b, "bwd_combine": 0xe31b83389878727f, "bwd_dispatch": 0x4b46f1ae880a0813,
			"bwd_experts": 0x4ca70751b11f1e5d, "combine": 0x4b46f1ae880a0813, "dispatch": 0x4b46f1ae880a0813,
			"experts": 0x37a3d9e3bd542be4, "gate": 0x50087090fbd8c665, "others": 0x61882e2fbe21424c,
		}},
	"pft/numeric/c3": {maxClock: 0x3f4485991d54ed10, clocks: 0x556f1822e8373cb1, events: 0x844d7d7e252ed808, peakMem: 10624, tensors: 0xd5dce9d0adbdef22,
		stages: map[string]uint64{
			"a2a_combine": 0x9da7b350fe758b82, "a2a_dispatch": 0x6dfc5c40c4f2c3dc, "bwd_a2a_combine": 0x239252128c2ed21b,
			"bwd_a2a_dispatch": 0xd9b881d55e8120ba, "bwd_combine": 0x54ad2859ebde0cfb, "bwd_dispatch": 0xb1c558431638395a,
			"bwd_experts": 0x7f11465815e9f110, "combine": 0xb1c558431638395a, "dispatch": 0xb1c558431638395a,
			"experts": 0xf8a664149ed5d298, "gate": 0x650ce7d49dc02645, "others": 0x22d5da744bbb8605,
		}},
	"padded/symbolic/c3": {maxClock: 0x3f6ede9dadc0b0ca, clocks: 0xd7110d8db1913425, events: 0xd58119acd7c89925, peakMem: 45088768, tensors: 0x0,
		stages: map[string]uint64{
			"a2a_combine": 0x176b40a6214bfd25, "a2a_dispatch": 0xd80ac658736bb725, "bwd_a2a_combine": 0xd80ac658736bb725,
			"bwd_a2a_dispatch": 0x249532d64eea4465, "bwd_combine": 0x2ebbc081b0200a25, "bwd_dispatch": 0x514ecb940f397de5,
			"bwd_experts": 0xa39ec253dd6f0525, "combine": 0x514ecb940f397de5, "dispatch": 0x514ecb940f397de5,
			"experts": 0x5358971e9e31b125, "gate": 0xa61d3664fb4942e5, "others": 0x9ff72673e4eb4aa5,
		}},
	"padded/numeric/c3": {maxClock: 0x3f58d7b716d5e30f, clocks: 0xdcacecdf0cab9d85, events: 0xd721ead0df6f7975, peakMem: 52320, tensors: 0x96e3b67277685604,
		stages: map[string]uint64{
			"a2a_combine": 0x6684b6cd71c16ae5, "a2a_dispatch": 0x8421ae126c7ced25, "bwd_a2a_combine": 0x8421ae126c7ced25,
			"bwd_a2a_dispatch": 0x4569f7edf5729fa5, "bwd_combine": 0x815bfb6430e48285, "bwd_dispatch": 0xe209ba3e135323c5,
			"bwd_experts": 0xafc0bdfb846eee05, "combine": 0xe209ba3e135323c5, "dispatch": 0xe209ba3e135323c5,
			"experts": 0x3ad7e94a6a1c7105, "gate": 0xa0aec53dedce57e5, "others": 0xe38d5b73706adac5,
		}},
	"rbd/symbolic/c3": {maxClock: 0x3f6385af8f7d0509, clocks: 0xc226cf8fac4a03ed, events: 0xe159bafb1132fbbd, peakMem: 28646452, tensors: 0x0,
		stages: map[string]uint64{
			"bwd_experts": 0x47c92bf790be4f28, "dispatch": 0x4b46f1ae880a0813, "experts": 0xa252da1889ae4825,
			"gate": 0x50087090fbd8c665, "rbd_bwd_comb_merge": 0x4ea3b0e142a28476, "rbd_bwd_comb_s1_a2a": 0x2fc2a0a820c5261f,
			"rbd_bwd_comb_s2_a2a": 0xd80ac658736bb725, "rbd_bwd_comb_scatter": 0x965b37c33b214323, "rbd_bwd_s1_a2a": 0x2cb860c41253204c,
			"rbd_bwd_s1_scatter": 0x4c8a3d7a41746fe, "rbd_bwd_s2_a2a": 0xd80ac658736bb725, "rbd_bwd_s2_reduce": 0x2acb5c7f66c8284c,
			"rbd_comb_merge": 0x42e66acf05d3d53d, "rbd_comb_s1_a2a": 0xbd17218e8fa2d841, "rbd_comb_s2_a2a": 0xbd7d12eb2ddc58a3,
			"rbd_comb_scatter": 0x4c8a3d7a41746fe, "rbd_reconstruct": 0x4fc2d9c65d89961f, "rbd_s1_a2a": 0xb8b850c6b9ed791b,
			"rbd_s1_inst": 0x965b37c33b214323, "rbd_s2_a2a": 0xd80ac658736bb725, "rbd_s2_inst": 0x198882a6ab0df0ce,
		}},
	"rbd/numeric/c3": {maxClock: 0x3f4b85cbbaf54fa6, clocks: 0xcb9c533ba99f01ae, events: 0x85d047e69b601efc, peakMem: 14244, tensors: 0xa4e89a5d26446cfe,
		stages: map[string]uint64{
			"bwd_experts": 0xeb43660bff126166, "dispatch": 0xb1c558431638395a, "experts": 0xcd3f5439046b8fe6,
			"gate": 0x650ce7d49dc02645, "rbd_bwd_comb_merge": 0x173062d7d011a06b, "rbd_bwd_comb_s1_a2a": 0x8ee4d3e557fae3c5,
			"rbd_bwd_comb_s2_a2a": 0x8421ae126c7ced25, "rbd_bwd_comb_scatter": 0x71f023af49f453c7, "rbd_bwd_s1_a2a": 0xd3afb28a063979f5,
			"rbd_bwd_s1_scatter": 0x474324f8608da882, "rbd_bwd_s2_a2a": 0x8421ae126c7ced25, "rbd_bwd_s2_reduce": 0xc2310b143d9d9bd4,
			"rbd_comb_merge": 0xbb44f6b6e3110eb9, "rbd_comb_s1_a2a": 0x5db3f90646d2bb05, "rbd_comb_s2_a2a": 0x660420820cf2b946,
			"rbd_comb_scatter": 0x474324f8608da882, "rbd_reconstruct": 0xe8395d74771cedc3, "rbd_s1_a2a": 0xab1dd9c13976f2b2,
			"rbd_s1_inst": 0x71f023af49f453c7, "rbd_s2_a2a": 0x8421ae126c7ced25, "rbd_s2_inst": 0x3714ae57dbb453c9,
		}},
}
