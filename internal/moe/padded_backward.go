package moe

import (
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// PaddedBackward runs the distributed backward pass of the conventional
// zero-padded MoE layer, mirroring PaddedForward stage for stage: the
// mask-einsum combine backward over the full padded buffer, the even
// all-to-all in reverse (gradients travel source→experts, carrying the
// padding exactly like the forward dispatch), the batched padded expert
// GEMM backward, the reverse even all-to-all, and the dispatch backward
// that accumulates occupied slots into dX. Wire volumes match the
// forward pass exactly — including the zero-padding waste, which is the
// point of the baseline.
//
// opts mirrors PFTBackward: Numeric selects real gradient math (dOut and
// params required), OverlapChunks the number of capacity-slot chunks the
// exchanges and the dX chain are split into, with the dW GEMMs run once
// over the complete segments (see overlap.go); gradients are bit-identical
// for any chunk count.
func PaddedBackward(r *simrt.Rank, g *simrt.Group, cfg Config, st *PaddedFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {

	opts.mustCheck()
	epr := epCheck(cfg, g)
	p := g.Size()
	h, f, e := cfg.HModel, cfg.HFFN, cfg.NumExperts
	capTokens := st.PA.Capacity
	elem := int64(cfg.BytesPerElem)
	vendor := opts.Kernels == KernelsVendor
	kernelClass := perfmodel.ClassFallback
	if vendor {
		kernelClass = perfmodel.ClassVendor
	}
	comp := r.C.Comp
	pool := r.Pool()
	rowsPerExpert := p * capTokens
	chunks := opts.Chunks()

	// --- Combine backward + reverse combine all-to-all --------------------
	// dFull[slot] = w_slot * dOut[token]; dWeights[slot] = <dOut[token],
	// combineFull[slot]>. Empty slots stay zero. Each chunk processes its
	// ChunkRange of the capacity slots and issues its exchange.
	var dFull *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dFull = pool.Get(e*capTokens, h)
		dWeights = make([]float32, e*capTokens)
	}
	parts := make([]simrt.Part, 2*chunks*p)
	exchanges := make([]simrt.Exchange, 2*chunks)
	combineX, dispatchX := exchanges[:chunks], exchanges[chunks:]
	for c := 0; c < chunks; c++ {
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		if opts.Numeric {
			for exp := 0; exp < e; exp++ {
				for pos := slo; pos < shi; pos++ {
					tok := st.PA.SlotToken[exp][pos]
					if tok < 0 {
						continue
					}
					slot := exp*capTokens + pos
					gRow := dOut.Row(tok)
					xRow := st.CombineFull.Data[slot*h : (slot+1)*h]
					w := st.PA.SlotWeight[exp][pos]
					dRow := dFull.Data[slot*h : (slot+1)*h]
					var dot float32
					for j := range gRow {
						dRow[j] = gRow[j] * w
						dot += gRow[j] * xRow[j]
					}
					dWeights[slot] = dot
				}
			}
		}
		// The mask einsum's gradient is another einsum for the fallback
		// frameworks, a bandwidth pass for Tutel.
		if vendor {
			r.Compute(StageBwdCombine, comp.MemBound(perfmodel.ClassVendor, 2*int64(e)*int64(cl)*int64(h)*elem))
		} else {
			r.Compute(StageBwdCombine, comp.MaskEinsum(st.S, e, cl, h))
		}
		send := parts[c*p : (c+1)*p]
		packSlots(send, dFull, epr, capTokens, h, elem, chunks, c)
		if chunks > 1 {
			// The strided slot-chunk pack; one chunk's full slot range is
			// a contiguous view.
			r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		}
		combineX[c] = r.AlltoAllVChunk(g, StageBwdCombineA2A, send, chunks)
	}

	// --- Per-chunk expert backward ----------------------------------------
	// Received layout per chunk: [P, EPR, cl, H], reordered into the full
	// expert-major gradient buffer at (le*P + src)*C + slo; the dX GEMM
	// chain runs per chunk, the dW GEMMs once over the complete segments.
	var grads FFNGrads
	if opts.Numeric {
		grads = NewFFNGrads(pool, epr*rowsPerExpert, h, f)
	}
	nb := epr * p
	ints := make([]int, 2*nb+epr)
	n, at, rows := ints[:nb], ints[nb:2*nb], ints[2*nb:]
	for le := range rows {
		rows[le] = rowsPerExpert
	}
	for c := 0; c < chunks; c++ {
		recv := combineX[c].Wait()
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		for k := range n {
			n[k], at[k] = cl, k*capTokens+slo
		}

		// Reorder [P, EPR, cl, H] -> expert-major sub-blocks, then the dX
		// chain over this chunk's slot range of every (le, src) block.
		reorder := comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem)
		r.Compute(StageOthers, reorder)
		r.Compute(StageBwdExperts, comp.BatchedPaddedGEMM(epr, p*cl, h, f)+
			comp.BatchedPaddedGEMM(epr, p*cl, f, h)+
			comp.MemBound(perfmodel.ClassVendor, 2*int64(epr*p*cl)*int64(f)*elem))
		if opts.Numeric {
			landBlocks(grads.DOut.Data, recv, n, at, h)
			grads.dxChain(st.HidPre, params, n, at, p)
		}

		// Pack src-major and send this chunk's input gradients home.
		r.Compute(StageOthers, reorder)
		sendBack := parts[(chunks+c)*p : (chunks+c+1)*p]
		packBlocks(sendBack, grads.DIn, n, at, h, elem)
		dispatchX[c] = r.AlltoAllVChunk(g, StageBwdDispA2A, sendBack, chunks)
	}

	// --- dW GEMMs over the complete segments ------------------------------
	// One TMatMul per expert over the full contiguous segment, hiding the
	// in-flight reverse transfers when there are any.
	r.Compute(StageBwdExperts, comp.BatchedPaddedGEMM(epr, rowsPerExpert, h, f)+
		comp.BatchedPaddedGEMM(epr, rowsPerExpert, f, h))
	var dW1, dW2 []*tensor.Tensor
	if opts.Numeric {
		dW1, dW2 = grads.DW(pool, st.ExpertIn, st.HidAct, params, rows)
		pool.Put(dFull)
	}
	if opts.OnDWReady != nil {
		// dW is complete and no blocking collective remains (one chunk: the
		// reverse dispatch has retired; chunked: only its chunk transfers
		// are in flight), so gradient sync issued here overlaps the drain
		// and the unpad backward.
		opts.OnDWReady()
	}

	// --- Drain reverse chunks into the dispatch-buffer gradient -----------
	var dDispBuf *tensor.Tensor
	if opts.Numeric {
		dDispBuf = pool.Get(e*capTokens, h)
	}
	for c := 0; c < chunks; c++ {
		back := dispatchX[c].Wait()
		if opts.Numeric {
			unpackSlots(dDispBuf, back, epr, capTokens, h, chunks, c)
		}
	}

	// --- Dispatch backward -------------------------------------------------
	// Occupied slots accumulate into their token's row, in slot order
	// (global expert ascending, capacity position ascending) — done once
	// over the fully drained buffer, so the order is chunk-invariant.
	if vendor {
		r.Compute(StageBwdDispatch, comp.MemBound(perfmodel.ClassVendor,
			2*int64(e)*int64(capTokens)*int64(h)*elem))
	} else {
		r.Compute(StageBwdDispatch, comp.MaskEinsum(st.S, e, capTokens, h))
	}
	var dx *tensor.Tensor
	if opts.Numeric {
		dx = tensor.New(st.S, h)
		for exp := 0; exp < e; exp++ {
			for c := 0; c < capTokens; c++ {
				tok := st.PA.SlotToken[exp][c]
				if tok < 0 {
					continue
				}
				src := dDispBuf.Data[(exp*capTokens+c)*h : (exp*capTokens+c+1)*h]
				dst := dx.Row(tok)
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		pool.Put(dDispBuf)
		// The forward state is consumed.
		pool.PutAll(st.ExpertIn, st.HidPre, st.HidAct, st.CombineFull)
		st.ExpertIn, st.HidPre, st.HidAct, st.CombineFull = nil, nil, nil, nil
	}

	return BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
}
