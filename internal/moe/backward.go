package moe

import (
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Backward trace stage names; mirrored against the forward stages.
const (
	StageBwdCombine    = "bwd_combine"
	StageBwdCombineA2A = "bwd_a2a_combine"
	StageBwdExperts    = "bwd_experts"
	StageBwdDispA2A    = "bwd_a2a_dispatch"
	StageBwdDispatch   = "bwd_dispatch"
)

// BackwardResult carries the gradients of one distributed MoE layer.
// In symbolic mode (no dOut) all fields are nil: the backward pass charges
// its modeled times and wire volumes without payloads.
type BackwardResult struct {
	// DX is the [S, H] gradient with respect to the layer input (the
	// data-path component through the experts; the router's gating
	// gradient flows through DCombineWeights).
	DX *tensor.Tensor
	// DW1 and DW2 are the per-local-expert weight gradients.
	DW1, DW2 []*tensor.Tensor
	// DCombineWeights[i] is the loss gradient of the combine weight of
	// layout entry i (PFT row i; for the padded layout slot e*C + c; for
	// RBD the PFT row as well), and 0 for a hole. The caller feeds it into
	// the router's softmax backward (per-token weights are routing
	// metadata, so they stay local).
	DCombineWeights []float32
}

// PFTBackward is st.Backward for the state of PFTForward; g and cfg are
// the forward's, which the state carries.
func PFTBackward(r *simrt.Rank, _ *simrt.Group, _ Config, st *PFTFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {
	return st.Backward(r, dOut, params, opts)
}

// PaddedBackward is st.Backward for the state of PaddedForward, which
// carries its layout; it stays for callers written against the padded
// pair.
func PaddedBackward(r *simrt.Rank, _ *simrt.Group, _ Config, st *PFTFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {
	return st.Backward(r, dOut, params, opts)
}

// Backward is the one backward body of the MoE layer (paper §4.3:
// "expert-specific gradient computation and alltoall communications,
// mirroring the forward process") for this forward state of any transport
// and the output gradient dOut [S, H], under the forward's layer
// configuration; it is what a transport's saved state runs. The state's
// exchange
// reverses the combine, lands the gradient batches and reverses the
// dispatch into dX; in between, each batch runs the expert GEMM and
// activation backward, and the dW GEMMs run over the complete segments.
// For the flat all-to-all the wire volumes match the forward pass exactly —
// the property the paper's four-alltoalls-per-layer accounting relies on,
// and for the padded layout the padding waste the baseline is there to
// show. A state from PaddedForward runs under the padded profile of
// opts.Kernels.
//
// The pass moves real gradients exactly when it is handed dOut (params
// must be set then, and the forward must have been numeric); with nil dOut
// it is timing-only, over any state. opts.OverlapChunks splits the combine
// gradient along the forward's chunk boundaries, so each chunk's dX GEMM
// chain runs while the next chunk's transfer is in flight and the dW
// GEMMs, deferred to the complete segments, hide the tail of the return
// trip (see overlap.go for the model and for what a single chunk skips).
// Gradients are bit-identical for any chunk count. A missing state, or dOut handed to a
// symbolic one, panics with an *OptionError.
func (st *PFTFwdState) Backward(r *simrt.Rank, dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {
	if err := checkBackward(st, dOut, opts); err != nil {
		panic(err)
	}
	padded, _ := st.Ex.Layout()
	l := &st.l
	cfg := l.cfg
	l.r, l.params, l.opts, l.kp, l.numeric = r, params, opts, profileOf(padded, opts.Kernels), dOut != nil
	// The gradients land in the full layout; each batch runs its dX chain
	// there (layer.Backward), and the exchange sends the batch's input
	// gradients home. Rank-local backward scratch comes from the per-rank
	// arena; gradients returned to the caller and buffers crossing an
	// exchange stay allocate-fresh.
	if l.numeric {
		l.grads = newFFNGrads(r.Pool(), l.bExp, cfg.HModel, cfg.HFFN)
	}
	dx, dWeights := st.Ex.Backward(r, dOut, l.grads.DOut, opts, l)
	res := BackwardResult{DX: dx, DW1: l.dW1, DW2: l.dW2, DCombineWeights: dWeights}
	if l.numeric {
		// The forward state is consumed: its saved intermediates return to
		// the arena so the next layer's forward pass reuses them.
		r.Pool().PutAll(l.expertIn, l.geluPrime, l.hidAct)
	}
	l.expertIn, l.geluPrime, l.hidAct, l.grads, l.dW1, l.dW2 = nil, nil, nil, ffnGrads{}, nil, nil
	return res
}

// fused reports X-MoE's single-chunk expert backward, one fused dX + dW
// kernel per expert segment, for the current pass.
func (l *layer) fused() bool { return fusedBackward(l.opts.Chunks(), l.kp.padded) }

// Backward runs the dX chain of one gradient batch: dHidAct = dY·W2ᵀ, GeLU
// backward, dExpertIn = dHidPre·W1ᵀ. With one chunk the fused kernel
// computes dX and dW of each expert segment together, before the reverse
// exchange.
func (l *layer) Backward(bt Batch) *tensor.Tensor {
	comp := l.r.C.Comp
	if l.fused() {
		l.r.Compute(StageBwdExperts, l.kp.gemms(comp, l.cfg, l.full)*2+l.kp.act(comp, l.cfg, l.bExp))
	} else {
		l.r.Compute(StageBwdExperts, l.kp.gemms(comp, l.cfg, bt.Rows)+l.kp.act(comp, l.cfg, sum(bt.Rows)))
	}
	if l.numeric {
		l.grads.dxChain(l.geluPrime, l.params, bt.N, bt.At)
	}
	return l.grads.DIn
}

// DW runs the deferred dW GEMMs over the complete segments, the bubble
// filler of the in-flight return transfers; the fused kernel charged them
// already.
func (l *layer) DW() {
	if !l.fused() {
		l.r.Compute(StageBwdExperts, l.kp.gemms(l.r.C.Comp, l.cfg, l.full))
	}
	if l.numeric {
		l.dW1, l.dW2 = l.grads.dW(l.r.Pool(), l.expertIn, l.hidAct, l.params, l.full)
	}
}

// checkBackward is the one check on entry of the backward: the options,
// then a state to reverse, then one a pass handed dOut can reverse.
func checkBackward(st *PFTFwdState, dOut *tensor.Tensor, opts PipelineOpts) error {
	if err := opts.Check(); err != nil {
		return err
	}
	if st == nil {
		return &OptionError{Opt: "SaveForBackward",
			Detail: "moe: the backward needs the forward state saved by a forward with SaveForBackward"}
	}
	if dOut != nil && !st.l.numeric {
		return &OptionError{Opt: "dOut",
			Detail: "moe: backward handed dOut, but the forward state was captured symbolically (its forward was handed no x)"}
	}
	return nil
}
