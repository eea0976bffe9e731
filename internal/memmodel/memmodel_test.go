package memmodel

import (
	"testing"
	"testing/quick"

	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/transport"
)

func baseSetup(world, tp, ep int) Setup {
	return Setup{
		Plan:           parallel.Plan{World: world, TP: tp, EP: ep, ZeROStage: 1},
		MicroBatch:     1,
		Transport:      transport.PFT,
		CapacityFactor: 1.25,
	}
}

func TestModelStatesShardingMonotone(t *testing.T) {
	sh := model.Medium()
	ep64 := ModelStates(sh, baseSetup(256, 1, 64))
	ep128 := ModelStates(sh, baseSetup(256, 1, 128))
	if ep128 >= ep64 {
		t.Fatalf("larger EP must shard experts further: %d vs %d", ep128, ep64)
	}
	tp1 := ModelStates(sh, baseSetup(256, 1, 64))
	tp4 := ModelStates(sh, baseSetup(256, 4, 64))
	if tp4 >= tp1 {
		t.Fatalf("larger TP must shard dense params: %d vs %d", tp4, tp1)
	}
}

func TestZeROStagesReduceStates(t *testing.T) {
	sh := model.Small()
	s0, s1, s2 := baseSetup(64, 1, 32), baseSetup(64, 1, 32), baseSetup(64, 1, 32)
	s0.Plan.ZeROStage = 0
	s1.Plan.ZeROStage = 1
	s2.Plan.ZeROStage = 2
	m0, m1, m2 := ModelStates(sh, s0), ModelStates(sh, s1), ModelStates(sh, s2)
	if !(m2 < m1 && m1 < m0) {
		t.Fatalf("ZeRO stages must monotonically reduce states: %d %d %d", m0, m1, m2)
	}
}

func TestMoELayerPaddedVsPFT(t *testing.T) {
	// Table 4's structure: padded >= PFT, with the mask only on padded.
	sh := model.Large()
	st := baseSetup(256, 1, 64)
	const s = 4096
	stPad := st
	stPad.Transport = transport.Padded
	pad := MoELayer(sh, stPad, s)
	pft := MoELayer(sh, st, s)
	if pad.Total() <= pft.Total() {
		t.Fatalf("padded %d should exceed PFT %d", pad.Total(), pft.Total())
	}
	if pad.Mask == 0 || pft.Mask != 0 {
		t.Fatal("mask belongs to the padded pipeline only")
	}
	if pft.ERI == 0 || pad.ERI != 0 {
		t.Fatal("ERI-arrays belong to the PFT pipeline only")
	}
	// The padded buffers carry the capacity factor's padding: with c=1.25
	// and balanced routing, padded dispatch is ~1.25x PFT's.
	ratio := float64(pad.ADispatch) / float64(pft.ADispatch)
	if ratio < 1.2 || ratio > 1.35 {
		t.Fatalf("padded/PFT dispatch ratio %.3f, want ~1.25", ratio)
	}
}

func TestFig3BottleneckShift(t *testing.T) {
	// §3.2: for Mconv the FFN intermediates dominate dispatch/combine;
	// for the size-equivalent Mspec the dispatch/combine dominate. The
	// intermediates are equal across the pair (Table 2).
	conv, spec := model.ConvSpecPair()
	st := baseSetup(256, 1, 16)
	st.Plan.EP = conv.NumExperts
	const s = 4096
	bc := MoELayer(conv, st, s)
	stSpec := st
	stSpec.Plan.EP = spec.NumExperts
	bs := MoELayer(spec, stSpec, s)

	if bc.AInterm0 != bs.AInterm0 {
		t.Fatalf("intermediates must match across the pair: %d vs %d", bc.AInterm0, bs.AInterm0)
	}
	if !(bc.ADispatch < bc.AInterm0) {
		t.Fatalf("Mconv: dispatch %d should be below interm %d", bc.ADispatch, bc.AInterm0)
	}
	if !(bs.ADispatch > bs.AInterm0) {
		t.Fatalf("Mspec: dispatch %d should dominate interm %d", bs.ADispatch, bs.AInterm0)
	}
	// Dispatch grows by the fine-grained factor m=8.
	ratio := float64(bs.ADispatch) / float64(bc.ADispatch)
	if ratio < 7 || ratio > 9 {
		t.Fatalf("dispatch ratio %.2f, want ~8 (m=8)", ratio)
	}
}

func TestTutelCombineBytes(t *testing.T) {
	sh := model.Large()
	st := baseSetup(256, 1, 64)
	st.Transport = transport.Padded
	st32 := st
	st32.CombineBytes = 4
	if MoELayer(sh, st32, 4096).ACombine != 2*MoELayer(sh, st, 4096).ACombine {
		t.Fatal("fp32 combine must double A_combine")
	}
}

func TestSSMBShardsActivations(t *testing.T) {
	// Fig. 13: SSMB divides MoE activations by TP; the gap grows with TP.
	sh := model.Large()
	base := baseSetup(256, 1, 64)
	prev := Activations(sh, base)
	for _, tp := range []int{2, 4} {
		st := baseSetup(256, tp, 64)
		st.Plan.SSMB = true
		with := Activations(sh, st)
		stNo := baseSetup(256, tp, 64)
		without := Activations(sh, stNo)
		if with >= without {
			t.Fatalf("TP=%d: SSMB %d should be below non-SSMB %d", tp, with, without)
		}
		if with >= prev {
			t.Fatalf("TP=%d: SSMB memory should shrink as TP grows", tp)
		}
		prev = with
	}
}

func TestActCkptReducesActivations(t *testing.T) {
	sh := model.Large()
	st := baseSetup(256, 1, 64)
	ck := st
	ck.ActCkpt = true
	if Activations(sh, ck) >= Activations(sh, st) {
		t.Fatal("activation checkpointing must reduce activation memory")
	}
}

func TestTable4ApproximateMagnitudes(t *testing.T) {
	// Table 4: per-MoE-layer activations for the Large model on 256 GPUs
	// (EP=64): DS-MoE 2.81 GB, Tutel 1.95, X-MoE 1.21, theoretical 1.125.
	// The model should land in the right bands with micro-batch 1
	// (4096 tokens/GPU).
	sh := model.Large()
	const s = 4096
	gb := func(b int64) float64 { return float64(b) / (1 << 30) }

	ds := baseSetup(256, 1, 64)
	ds.Transport = transport.Padded
	dsGB := gb(MoELayer(sh, ds, s).Total())

	tutel := ds
	tutel.CombineBytes = 4
	tutel.Kernels = moe.KernelsVendor
	tutelGB := gb(MoELayer(sh, tutel, s).Total())

	xm := baseSetup(256, 1, 64)
	xmGB := gb(MoELayer(sh, xm, s).Total())

	theory := gb(4 * 1.25 * 8 * 4096 * 7168) // 2 tensors x 2B x c*k*S*H

	if !(dsGB > tutelGB && tutelGB > xmGB) {
		t.Fatalf("ordering violated: DS %.2f, Tutel %.2f, X-MoE %.2f GB", dsGB, tutelGB, xmGB)
	}
	if xmGB < theory {
		t.Fatalf("X-MoE %.2f GB cannot beat the theoretical floor %.2f GB", xmGB, theory)
	}
	if dsGB < 2.0 || dsGB > 4.5 {
		t.Errorf("DS-MoE %.2f GB outside the paper's band (~2.8)", dsGB)
	}
	if xmGB < 1.0 || xmGB > 1.7 {
		t.Errorf("X-MoE %.2f GB outside the paper's band (~1.2)", xmGB)
	}
}

func TestSSMBvsTEDTradeoff(t *testing.T) {
	// Fig. 17 / Appendix C.2: DeepSeek-style models (large k, small HFFN)
	// favour SSMB at all plotted sequence lengths; Mixtral-style models
	// (k=2, huge HFFN) favour TED.
	c := 1.0
	for _, s := range []int{2048, 4096, 8192} {
		if !SSMBAdvantage(8, 2048, c, s) { // DeepSeek-v3-ish
			t.Errorf("DeepSeek config should favour SSMB at S=%d", s)
		}
		if SSMBAdvantage(2, 14336, c, s) { // Mixtral-8x7b-ish
			t.Errorf("Mixtral config should favour TED at S=%d", s)
		}
	}
	// Arctic (fine-grained experts, k=2, HFFN=4864): sequence-length
	// dependent — TED at short, SSMB at long sequences.
	if SSMBAdvantage(2, 4864, c, 2048) {
		t.Error("Arctic at S=2048 should favour TED")
	}
	if !SSMBAdvantage(2, 4864, c, 8192) {
		t.Error("Arctic at S=8192 should favour SSMB")
	}
}

func TestEquationsConsistent(t *testing.T) {
	// The advantage condition must agree with comparing Eq.1 and Eq.2.
	f := func(kRaw, hffnRaw, sRaw uint16) bool {
		k := int(kRaw)%16 + 1
		hffn := (int(hffnRaw)%16 + 1) * 1024
		s := (int(sRaw)%8 + 1) * 1024
		const c = 1.25
		const h = 4096
		const g = 4
		saving := ssmbSaving(c, k, s, h, g)
		cost := tedMinCost(hffn, h, g)
		return (saving > cost) == SSMBAdvantage(k, hffn, c, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvantageBorder(t *testing.T) {
	// On the border, k* = 2*HFFN/(c*S); slightly above favours SSMB.
	border := AdvantageBorderTopK(2048, 1.0, 2048)
	if border != 2.0 {
		t.Fatalf("border k = %f, want 2.0", border)
	}
	if SSMBAdvantage(2, 2048, 1.0, 2048) {
		t.Fatal("exactly on border must not favour SSMB")
	}
	if !SSMBAdvantage(3, 2048, 1.0, 2048) {
		t.Fatal("above border must favour SSMB")
	}
}

func TestQuickActivationsMonotone(t *testing.T) {
	sh := model.Small()
	f := func(mbRaw uint8) bool {
		mb := int(mbRaw)%8 + 1
		st := baseSetup(64, 1, 64)
		st.MicroBatch = mb
		st2 := st
		st2.MicroBatch = mb + 1
		return Activations(sh, st2) > Activations(sh, st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSSMBSavingEdge(t *testing.T) {
	if ssmbSaving(1.25, 8, 4096, 7168, 1) != 0 || tedMinCost(2048, 7168, 1) != 0 {
		t.Fatal("G=1 has nothing to save")
	}
}

// ssmbSaving is Eq. 1, the reference TestEquationsConsistent holds
// SSMBAdvantage to: the per-device activation bytes SSMB saves at TP
// degree g (half precision, dispatch+combine both scale with c*k*S*H).
func ssmbSaving(c float64, k, sTokens, h, g int) float64 {
	if g <= 1 {
		return 0
	}
	return 4 * c * float64(k) * float64(sTokens) * float64(h) * float64(g-1) / float64(g)
}

// tedMinCost is Eq. 2: the minimum extra model-state bytes of choosing
// SSMB over TED at TP degree g (the expert parameters TED would have
// sharded).
func tedMinCost(hFFN, h, g int) float64 {
	if g <= 1 {
		return 0
	}
	return 8 * float64(hFFN) * float64(h) * float64(g-1) / float64(g)
}

// TestCheckpointBytes pins the checkpoint-write volume: expert state is
// charged in full (each rank owns its experts), the single persisted
// dense-parameter copy divides across the dp writers, and the dense
// optimizer copy tracks the configured ZeRO stage — replicated at stage
// 0, sharded at stages 1 and 2.
func TestCheckpointBytes(t *testing.T) {
	const expert, dense = int64(1000), int64(800)
	s0 := CheckpointBytes(expert, dense, 4, 0, 4, 4)
	s1 := CheckpointBytes(expert, dense, 4, 1, 4, 4)
	s2 := CheckpointBytes(expert, dense, 4, 2, 4, 4)
	// expert params+opt 1000*8, dense params 800*4/4, dense opt 800*4
	// replicated or 800*4/4 sharded.
	if want := int64(1000*8 + 800 + 3200); s0 != want {
		t.Fatalf("stage 0: %d, want %d", s0, want)
	}
	if want := int64(1000*8 + 800 + 800); s1 != want {
		t.Fatalf("stage 1: %d, want %d", s1, want)
	}
	// Checkpoints persist no gradients, so stage 2 writes what stage 1
	// writes.
	if s2 != s1 {
		t.Fatalf("stage 2 %d must match stage 1 %d (no gradients persisted)", s2, s1)
	}
	// No optimizer (plain SGD): the opt terms vanish entirely.
	if got, want := CheckpointBytes(expert, dense, 4, 0, 4, 0), int64(1000*4+800); got != want {
		t.Fatalf("no-momentum: %d, want %d", got, want)
	}
	// dp<1 is treated as a single writer.
	if got, want := CheckpointBytes(expert, dense, 0, 1, 4, 4), int64(1000*8+3200+3200); got != want {
		t.Fatalf("dp=0: %d, want %d", got, want)
	}
}
