// Package memmodel is the analytic memory model of the reproduction: it
// computes per-GPU model-state and activation memory for any combination
// of model shape (internal/model), hybrid-parallel plan
// (internal/parallel), and the transport a system's MoE layers run
// (internal/transport) with the kernels that build their buffers,
// following the paper's accounting in §3.2 (Tables 1-2), §4.3, Table 4,
// and Appendix C.2 (the SSMB-vs-TED tradeoff, Eqs. 1-2).
//
// Every memory-related figure of the paper — the Fig. 3 bottleneck shift,
// Table 4 per-layer activations, Fig. 13 SSMB savings, Fig. 17 advantage
// regions, and the OOM verdicts in Figs. 9 and 20 — is derived from these
// formulas, each from the setup baselines.For(sys, m).MemSetup builds.
// TestMoELayerMatchesLiveMemTracker holds MoELayer to the live MemTracker
// accounting of the transport.Layer its Setup names: a padded layer's
// mask, dispatch, combine and intermediate buffers match it byte for byte
// under the fallback, vendor and fp32-combine profiles, and a PFT or RBD
// layer's dispatch buffer, intermediates and ERI-arrays (and PFT's
// combine buffer) stay within its bound of min(S·k, E·C) rows. RBD's
// staging buffers are not priced (see Setup.Transport). Nothing else here
// is checked against a simulation.
package memmodel

import (
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/transport"
)

// Setup combines the knobs that determine memory consumption.
type Setup struct {
	// Plan is the hybrid parallel layout.
	Plan parallel.Plan
	// MicroBatch is the number of sequences each GPU processes per
	// micro-step.
	MicroBatch int
	// Transport is the transport the MoE layers run: Padded prices the
	// capacity-padded buffers, PFT and RBD the padding-free ones. RBD is
	// priced as PFT, so it is underpriced: its staging buffers
	// (rbd_pilot_send, rbd_pilot_recv, rbd_s2_send, rbd_s2_recv,
	// rbd_merged) have no term here. Symbolic forwards at H = 64, F = 32,
	// routing skew 0.8 put RBD's largest live per-rank peak at 1.30x
	// PFT's (E = 16, k = 4, EP 4, S = 96), 1.33x (E = 64, k = 8, EP 16,
	// S = 512) and 1.40x (the same at EP 32).
	Transport transport.Kind
	// CapacityFactor is the expert capacity factor c (1.25 in §5.1).
	CapacityFactor float64
	// CombineBytes is the element size of combine-side buffers (4 models
	// Tutel's forced fp32 A_combine on AMD; 0 = bf16).
	CombineBytes int
	// Kernels is the kernel class that builds a padded layer's buffers:
	// every profile but Tutel's sparse dispatcher builds the dense
	// [S, E, C] mask (moe.KernelProfile.DenseMask).
	Kernels moe.KernelProfile
	// ActCkpt enables activation checkpointing: only layer inputs are
	// retained; everything else is recomputed in backward.
	ActCkpt bool
}

func (s Setup) combineBytes() int {
	if s.CombineBytes > 0 {
		return s.CombineBytes
	}
	return actBytes
}

const (
	maskBytes  = 4  // fp32 combine-weights mask of the conventional pipeline
	actBytes   = 2  // bf16 activations
	paramBytes = 2  // bf16 parameters
	gradBytes  = 2  // bf16 gradients
	optBytes   = 12 // fp32 master copy + Adam m/v per parameter
)

// StateBytes itemises one parameter family's per-rank model-state
// footprint: parameters, gradients, and optimizer state.
type StateBytes struct {
	Params, Grads, Opt int64
}

// Total sums the three state classes.
func (s StateBytes) Total() int64 { return s.Params + s.Grads + s.Opt }

// Add accumulates another family's states.
func (s StateBytes) Add(o StateBytes) StateBytes {
	return StateBytes{s.Params + o.Params, s.Grads + o.Grads, s.Opt + o.Opt}
}

// ZeROStates predicts the peak-rank model-state bytes of one parameter
// family of `params` elements replicated over a data-parallel group of
// size dp under the given ZeRO stage: stage 1 shards the optimizer
// state across the group, stage 2 additionally shards the gradients,
// parameters stay replicated (republished by the post-step all-gather).
// Sharding uses ceil division — the leading ranks own the remainder
// elements under the ShardRange convention, so ceil is the peak rank's
// share, the quantity memory verdicts must bound.
func ZeROStates(params int64, dp, stage int, bytesParam, bytesGrad, bytesOpt int64) StateBytes {
	d := int64(dp)
	if d < 1 {
		d = 1
	}
	shard := func(n int64) int64 { return (n + d - 1) / d }
	s := StateBytes{Params: params * bytesParam, Grads: params * bytesGrad, Opt: params * bytesOpt}
	if stage >= 1 {
		s.Opt = shard(params) * bytesOpt
	}
	if stage >= 2 {
		s.Grads = shard(params) * bytesGrad
	}
	return s
}

// CheckpointBytes predicts the peak-rank bytes one checkpoint write
// streams to stable storage, derived from the same ZeROStates sharding
// the in-memory verdicts use. expertElems counts the rank's local
// expert-parameter elements (already sharded over EP — each rank
// persists its own experts and their full optimizer state); denseElems
// counts the replicated dense parameters, whose single persisted copy
// divides across the dp writers while the optimizer copy follows the
// ZeRO stage: stage 0 keeps it replicated (one rank writes the whole
// vector — the peak this returns), stages 1+ write only the rank's
// shard. optBytes is the per-element optimizer-state size (0 for a
// stateless optimizer).
func CheckpointBytes(expertElems, denseElems int64, dp, stage int, elemBytes, optBytes int64) int64 {
	d := int64(dp)
	if d < 1 {
		d = 1
	}
	expert := ZeROStates(expertElems, 1, 0, elemBytes, 0, optBytes)
	dense := ZeROStates(denseElems, dp, stage, elemBytes, 0, optBytes)
	b := expert.Params + expert.Opt
	b += (dense.Params + d - 1) / d // one persisted copy, split across writers
	b += dense.Opt
	return b
}

// ModelStates returns the per-GPU bytes of parameters, gradients and
// optimizer states under the plan's TP/EP sharding and ZeRO stage. Expert
// parameters shard over EP and their optimizer (and ZeRO-2 gradients)
// over the expert-DP group; dense parameters shard over TP and their
// optimizer over the dense DP group.
func ModelStates(sh model.Shape, st Setup) int64 {
	return ModelStatesBreakdown(sh, st).Total()
}

// ModelStatesBreakdown is ModelStates itemised by state class, the
// quantity the abl-zero ablation reports per ZeRO stage.
func ModelStatesBreakdown(sh model.Shape, st Setup) StateBytes {
	plan := st.Plan
	expertParams := int64(sh.Layers) * sh.ExpertParamsPerLayer() / int64(plan.EP)
	denseParams := int64(sh.Layers)*(sh.AttentionParamsPerLayer()/int64(plan.TP)+sh.RouterParamsPerLayer()) +
		sh.EmbeddingParams()/int64(plan.TP)
	expert := ZeROStates(expertParams, plan.ExpertDP(), plan.ZeROStage, paramBytes, gradBytes, optBytes)
	dense := ZeROStates(denseParams, plan.DP(), plan.ZeROStage, paramBytes, gradBytes, optBytes)
	return expert.Add(dense)
}

// MoEBreakdown itemises one MoE layer's activation memory per GPU,
// mirroring §3.2's taxonomy.
type MoEBreakdown struct {
	// Mask is the dispatch-mask plus intermediate gating tensors
	// (padded pipeline only).
	Mask int64
	// ADispatch is the dispatched expert input buffer.
	ADispatch int64
	// ACombine is the expert output buffer before combining.
	ACombine int64
	// AInterm0 and AInterm1 are the expert FFN intermediate activations.
	AInterm0, AInterm1 int64
	// ERI is the PFT metadata (PFT pipeline only).
	ERI int64
}

// Total returns the summed activation bytes of the layer.
func (b MoEBreakdown) Total() int64 {
	return b.Mask + b.ADispatch + b.ACombine + b.AInterm0 + b.AInterm1 + b.ERI
}

// MoELayer computes the per-GPU activation breakdown of one MoE layer
// processing sTokens tokens per GPU (after any SSMB sharding; pass the
// dense-block token count divided by TP when the plan shards sequences).
func MoELayer(sh model.Shape, st Setup, sTokens int) MoEBreakdown {
	e, k := sh.NumExperts, sh.TopK
	h, f := int64(sh.HModel), int64(sh.HFFN)
	cfg := moe.LayerOf(sh)
	cfg.CapacityFactor = st.CapacityFactor
	rows := int64(e) * int64(cfg.Capacity(sTokens))

	var b MoEBreakdown
	if st.Transport == transport.Padded {
		// DeepSpeed-style gating materialises an fp32 combine-weights
		// tensor [S, E, C] plus a bf16 dispatch mask of the same shape
		// (the einsum operand), plus [S*K, E] one-hot/cumsum
		// intermediates — the ">70% of activation memory" of §3.1. The
		// padded buffers hold E*C rows per GPU after the even
		// all-to-all regardless of occupancy. Tutel's sparse dispatcher
		// skips the dense mask but keeps index arrays.
		if st.Kernels.DenseMask() {
			b.Mask = int64(sTokens)*rows*(maskBytes+actBytes) + int64(sTokens*k*e)*4
		} else {
			b.Mask = int64(sTokens*k) * 16
		}
	} else {
		// The padding-free buffers hold the routed rows, at most E*C,
		// described by the ERI-arrays.
		rows = min(rows, int64(sTokens)*int64(k))
		b.ERI = rows*12 + int64(e)*4
	}
	b.ADispatch = rows * h * actBytes
	b.ACombine = rows * h * int64(st.combineBytes())
	b.AInterm0 = rows * f * actBytes
	b.AInterm1 = rows * f * actBytes
	return b
}

// DenseLayerActivations returns the per-GPU activation bytes of one dense
// (attention) block processing sTokens tokens: TP shards the in-block
// activations while block inputs/outputs stay duplicated.
func DenseLayerActivations(sh model.Shape, st Setup, sTokens int) int64 {
	h := int64(sh.HModel)
	// The block boundary tensor is counted once (the output is the next
	// block's input); in-block activations shard over TP.
	duplicated := int64(sTokens) * h * actBytes
	sharded := 8 * int64(sTokens) * h * actBytes / int64(st.Plan.TP) // qkv, scores-proxy, proj, norms
	return duplicated + sharded
}

// Activations returns the total per-GPU activation bytes for one
// micro-step across all layers, honouring SSMB sequence sharding and
// activation checkpointing.
func Activations(sh model.Shape, st Setup) int64 {
	sTokens := st.MicroBatch * sh.SeqLen
	sMoE := sTokens
	if st.Plan.SSMB && st.Plan.TP > 1 {
		sMoE = (sTokens + st.Plan.TP - 1) / st.Plan.TP
	}
	moe := MoELayer(sh, st, sMoE).Total()
	dense := DenseLayerActivations(sh, st, sTokens)
	perLayer := moe + dense
	layerInput := int64(sTokens) * int64(sh.HModel) * actBytes

	if st.ActCkpt {
		// Keep one checkpoint per layer plus one layer's live
		// activations during recomputation.
		return int64(sh.Layers)*layerInput + perLayer + 2*layerInput
	}
	embed := 2 * layerInput // embedding output + logits-side activations
	return int64(sh.Layers)*perLayer + embed
}

// SSMBAdvantage reports whether SSMB saves more memory than TED for the
// given architecture and sequence length: r = k/H_FFN > 2/(c*S)
// (§4.3's tradeoff condition).
func SSMBAdvantage(k, hFFN int, c float64, sTokens int) bool {
	r := float64(k) / float64(hFFN)
	return r > 2/(c*float64(sTokens))
}

// AdvantageBorderTopK returns, for Fig. 17's advantage-region plot, the
// top-k value at which SSMB and TED break even for a given intermediate
// dimension and sequence length: k* = 2*H_FFN/(c*S).
func AdvantageBorderTopK(hFFN int, c float64, sTokens int) float64 {
	return 2 * float64(hFFN) / (c * float64(sTokens))
}
