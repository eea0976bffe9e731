package rbd

import (
	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// LayerResult is moe.LayerResult plus the saved hierarchical exchange
// state Backward consumes (nil unless opts.SaveForBackward).
type LayerResult struct {
	moe.LayerResult
	State *FwdState
}

// Forward runs a complete X-MoE MoE layer with RBD transport: gating and
// PFT construction as in the padding-free pipeline (moe.PFTForward), but
// with dispatch and combine routed through the hierarchical
// redundancy-bypassing stages instead of the flat uneven all-to-all.
// With opts.SaveForBackward the result carries the FwdState Backward
// needs — the dispatch geometry always, plus the expert-FFN intermediates
// in numeric mode.
func Forward(r *simrt.Rank, d *Dispatcher, cfg moe.Config, s int, x *tensor.Tensor,
	routing moe.Routing, params *moe.ExpertParams, pilotRNG *tensor.RNG, opts moe.PipelineOpts) LayerResult {

	if err := CheckOpts(opts); err != nil {
		panic(err.Error())
	}
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp

	// Gate + PFT construction (identical to the PFT pipeline).
	gateTime := comp.GEMM(s, h, cfg.NumExperts) +
		comp.MemBoundN(perfmodel.ClassTriton, 6,
			int64(s*cfg.NumExperts)*elem+int64(s*cfg.TopK)*24)
	r.Compute(moe.StageGate, gateTime)
	pft := moe.RoutedPFT(routing, cfg, s, opts)
	b := pft.B()
	mem.Alloc("eri", pft.ERIBytes())

	// Dispatch buffer gather.
	r.Compute(moe.StageDispatch, comp.MemBound(perfmodel.ClassTriton, 2*int64(b)*int64(h)*elem))
	var dispIn *tensor.Tensor
	if opts.Numeric {
		dispIn = kernels.Gather(x, pft.TokenIDs)
	}
	mem.Alloc("dispatch_in", int64(b)*int64(h)*elem)

	// RBD dispatch, experts and combine. The forward keeps two schedules,
	// chosen by the chunk count: with chunks the expert input is split
	// into pilot and replica rows whose GEMMs run around the in-flight
	// intra-node exchanges (forwardOverlap) — a different algorithm, not a
	// re-timing, and only worth its extra launches and staging when there
	// are transfers to hide; with one chunk the experts run once over the
	// reconstructed input between blocking exchanges. Output is
	// bit-identical either way.
	schedule := forwardBlocking
	if opts.Chunks() > 1 {
		schedule = forwardOverlap
	}
	out, bExp, st := schedule(r, d, cfg, s, pft, dispIn, params, pilotRNG, opts)

	if !opts.RetainActivations {
		mem.Free("eri", pft.ERIBytes())
		mem.Free("dispatch_in", int64(b)*int64(h)*elem)
		mem.Free("A0_interm", int64(bExp)*int64(f)*elem)
		mem.Free("A1_interm", int64(bExp)*int64(f)*elem)
	}
	res := LayerResult{LayerResult: moe.LayerResult{
		Output:       out,
		PFT:          pft,
		RoutedTokens: b,
		RecvTokens:   bExp,
		Dropped:      pft.Dropped,
	}}
	if st.save != nil {
		st.save.S = s
		res.State = st.save
	}
	return res
}

// forwardBlocking is the one-chunk RBD layer: blocking dispatch (stages
// 0-2 + expert input reconstruction), one sequential-GEMM pass over the
// reconstructed uneven segments, blocking combine.
func forwardBlocking(r *simrt.Rank, d *Dispatcher, cfg moe.Config, s int, pft *moe.PFT,
	dispIn *tensor.Tensor, params *moe.ExpertParams, pilotRNG *tensor.RNG, opts moe.PipelineOpts) (*tensor.Tensor, int, *State) {

	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp
	pool := r.Pool()

	st, expertIn := d.Dispatch(r, pft, dispIn, pilotRNG, opts)
	bExp := 0
	for _, c := range st.RowsPerLE {
		bExp += c
	}
	expertTime := comp.SequentialGEMM(st.RowsPerLE, h, f) +
		comp.SequentialGEMM(st.RowsPerLE, f, h) +
		comp.MemBound(perfmodel.ClassTriton, 2*int64(bExp)*int64(f)*elem)
	r.Compute(moe.StageExperts, expertTime)
	mem.Alloc("A0_interm", int64(bExp)*int64(f)*elem)
	mem.Alloc("A1_interm", int64(bExp)*int64(f)*elem)
	var expertOut *tensor.Tensor
	if opts.Numeric {
		interm := pool.Get(bExp, f)
		kernels.SequentialGEMMInto(interm, expertIn, st.RowsPerLE, params.W1)
		hidAct := interm
		if st.save != nil {
			// Backward needs both the pre-activation (GeLU') and the
			// activated hidden buffer (dW2 operand): keep interm as the
			// pre-activation and GeLU a copy.
			hidAct = pool.Get(bExp, f)
			hidAct.Copy(interm)
		}
		tensor.GeLU(hidAct)
		expertOut = pool.Get(bExp, h)
		kernels.SequentialGEMMInto(expertOut, hidAct, st.RowsPerLE, params.W2)
		if st.save != nil {
			st.save.ExpertIn, st.save.HidPre, st.save.HidAct = expertIn, interm, hidAct
		} else {
			pool.PutAll(expertIn, interm)
		}
	}

	out := d.Combine(r, st, expertOut, s, opts)
	pool.Put(expertOut)
	return out, bExp, st
}
