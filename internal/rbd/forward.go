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
//
// It is one body parameterised by opts.OverlapChunks, which changes the
// schedule and nothing else. With chunks, S1 and C1 split into that many
// exchanges whose instantiation and merge passes hide each other's
// transfers, and the intra-node S2 and C2 fly under the work that does not
// need them: the pilot rows' reconstruction and expert GEMMs, and the
// pilot scaling. With one chunk every exchange is blocking and each of
// those passes is charged once. The numbers are the same either way: the
// expert FFN is row-independent, so it runs once over the whole input
// after Stage 2 lands whichever rows the schedule priced first, and the
// merge keeps its per-row order (see Combine) — the output is bit-identical
// for any chunk count.
func Forward(r *simrt.Rank, d *Dispatcher, cfg moe.Config, s int, x *tensor.Tensor,
	routing moe.Routing, params *moe.ExpertParams, pilotRNG *tensor.RNG, opts moe.PipelineOpts) LayerResult {

	if err := CheckOpts(opts); err != nil {
		panic(err)
	}
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp
	pool := r.Pool()

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

	// experts charges the W1/GeLU/W2 pass over the given per-expert rows.
	experts := func(rowsPerLE []int) {
		r.Compute(moe.StageExperts, ffnChainCost(comp, cfg, rowsPerLE))
	}
	// Chunked, the pilot rows' GEMMs are launched under the in-flight
	// Stage 2 (the hook runs only then) and the replica rows' after it;
	// one chunk runs the experts once over the reconstructed input.
	st, expertIn := d.dispatch(r, pft, dispIn, pilotRNG, opts, func(st *State) { experts(st.PilotRowsPerLE) })
	if opts.Chunks() > 1 {
		experts(st.ReplicaRowsPerLE)
	} else {
		experts(st.RowsPerLE)
	}
	bExp := 0
	for _, c := range st.RowsPerLE {
		bExp += c
	}
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

	if !opts.RetainActivations {
		rowBytes := int64(h) * elem
		mem.Free("eri", pft.ERIBytes())
		mem.Free("dispatch_in", int64(b)*rowBytes)
		mem.Free("rbd_pilot_send", int64(len(st.pilotEntry))*rowBytes)
		mem.Free("rbd_pilot_recv", int64(st.pilotRowsTotal)*rowBytes)
		mem.Free("rbd_s2_send", int64(st.s2SentRows())*rowBytes)
		mem.Free("rbd_s2_recv", int64(bExp-st.pilotRowsTotal)*rowBytes)
		mem.Free("rbd_expert_in", int64(bExp)*rowBytes)
		mem.Free("A0_interm", int64(bExp)*int64(f)*elem)
		mem.Free("A1_interm", int64(bExp)*int64(f)*elem)
		mem.Free("rbd_merged", int64(st.pilotRowsTotal)*rowBytes)
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

// ffnChainCost is the modeled time of one trip through the expert FFN over
// the given per-expert rows — two sequential GEMMs and the activation pass
// between them — which the forward (W1, GeLU, W2) and the backward's dX
// chain (W2ᵀ, GeLU', W1ᵀ) both are.
func ffnChainCost(comp *perfmodel.Model, cfg moe.Config, rowsPerLE []int) float64 {
	rows := 0
	for _, c := range rowsPerLE {
		rows += c
	}
	return comp.SequentialGEMM(rowsPerLE, cfg.HModel, cfg.HFFN) +
		comp.SequentialGEMM(rowsPerLE, cfg.HFFN, cfg.HModel) +
		comp.MemBound(perfmodel.ClassTriton, 2*int64(rows)*int64(cfg.HFFN)*int64(cfg.BytesPerElem))
}
