package moe

import (
	"xmoe/internal/kernels"
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
// In symbolic mode (opts.Numeric false) all fields are nil: the backward
// pass charges its modeled times and wire volumes without payloads.
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

// PFTBackward runs the distributed backward pass of the padding-free MoE
// layer (paper §4.3: "expert-specific gradient computation and alltoall
// communications, mirroring the forward process"). Given the forward
// state and the output gradient dOut [S, H], it reverses every forward
// stage: scatter-combine backward, the combine all-to-all in reverse
// (gradients travel source→experts, the same direction as dispatch),
// expert GEMM and activation backward per expert segment, the dispatch
// all-to-all in reverse (experts→source), and the gather backward into
// dX. The wire volumes match the forward pass exactly — the property the
// paper's four-alltoalls-per-layer accounting relies on, and for the
// padded layout the padding waste the baseline is there to show. A state
// from PaddedForward runs under the padded profile of opts.Kernels.
//
// opts selects the execution mode: Numeric moves real gradients (dOut and
// params must be set), otherwise the pass is timing-only; OverlapChunks
// splits the combine gradient along the forward's per-expert ChunkRange
// boundaries, so each chunk's dX GEMM chain runs while the next chunk's
// transfer is in flight and the dW GEMMs, deferred to the complete
// segments, hide the tail of the reverse dispatch (see overlap.go for the
// model and for what a single chunk skips). Gradients are bit-identical
// for any chunk count.
func PFTBackward(r *simrt.Rank, g *simrt.Group, cfg Config, st *PFTFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {

	opts.mustCheck()
	chunks := opts.Chunks()
	epr := epCheck(cfg, g)
	p := g.Size()
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	kp := profileOf(st.padded, opts.Kernels)
	// X-MoE's single-chunk expert backward is one fused dX + dW kernel.
	fused := chunks == 1 && !kp.padded
	comp := r.C.Comp
	// Rank-local backward scratch comes from the per-rank arena;
	// gradients returned to the caller and buffers crossing the
	// all-to-alls stay allocate-fresh (see PFTForward).
	pool := r.Pool()
	pft := st.PFT
	b := pft.B()
	bExp := st.bExp()
	segStart := st.segStart

	// --- Per-chunk scatter-combine backward + reverse combine all-to-all --
	// The forward saved combineIn (the returned expert outputs in layout
	// order); the scatter's backward yields the per-row gradients and the
	// combine-weight gradients in one pass, a hole's both staying zero.
	// Forward combine moved rows experts→source; its gradient moves
	// source→experts with the dispatch segmentation. A single chunk
	// crosses the exchange as views of dCombineIn, which must then be
	// allocate-fresh: a nil arena is.
	sendPool := pool
	if chunks == 1 {
		sendPool = nil
	}
	var dCombineIn *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dCombineIn = sendPool.Get(b, h)
		dWeights = make([]float32, b)
	}
	parts := make([]simrt.Part, 2*chunks*p)
	exchanges := make([]simrt.Exchange, 2*chunks)
	combineX, dispatchX := exchanges[:chunks], exchanges[chunks:]
	for c := 0; c < chunks; c++ {
		if opts.Numeric {
			for e, cnt := range pft.TokensPerExpert {
				lo, hi := simrt.ChunkRange(cnt, chunks, c)
				for i := segStart[e] + lo; i < segStart[e]+hi; i++ {
					tok := pft.TokenIDs[i]
					if tok < 0 {
						continue
					}
					gRow := dOut.Row(tok)
					xRow := st.CombineIn.Row(i)
					w := pft.CombineWeights[i]
					dRow := dCombineIn.Row(i)
					var dot float32
					for j := range gRow {
						dRow[j] = gRow[j] * w
						dot += gRow[j] * xRow[j]
					}
					dWeights[i] = dot
				}
			}
		}
		send := parts[c*p : (c+1)*p]
		chunkRows := packSegments(send, dCombineIn, pft.TokensPerExpert, segStart, epr, h, elem, chunks, c)
		r.Compute(StageBwdCombine, kp.bufferPass(comp, cfg, st.S, chunkRows, elem))
		if chunks > 1 {
			// The strided chunk pack; one chunk is sent as contiguous views.
			r.Compute(StageOthers, comp.MemBound(kp.class, 2*int64(chunkRows)*int64(h)*elem))
		}
		combineX[c] = r.AlltoAllVChunk(g, StageBwdCombineA2A, send, chunks)
	}
	sendPool.Put(dCombineIn) // packed chunks are fully staged

	// --- Per-chunk dX GEMM chain, reverse dispatch issued per chunk ------
	// Gradients land directly in full expert-major buffers (the saved
	// state's layout) so the dW GEMMs see complete segments; block
	// (src, le) of a chunk sits at the block's offset plus its ChunkRange
	// start. Received parts are src-major with rows ordered by local expert,
	// the layout of the forward dispatch receive.
	var grads FFNGrads
	if opts.Numeric {
		grads = NewFFNGrads(pool, bExp, h, f)
	}
	nb := epr * p
	ints := make([]int, 2*nb+epr)
	n, at, chunkRowsPerLE := ints[:nb], ints[nb:2*nb], ints[2*nb:]
	for c := 0; c < chunks; c++ {
		recv := combineX[c].Wait()
		bc := 0
		for le := 0; le < epr; le++ {
			chunkRowsPerLE[le] = 0
			for src := 0; src < p; src++ {
				lo, hi := simrt.ChunkRange(st.RecvCounts[src*epr+le], chunks, c)
				n[le*p+src], at[le*p+src] = hi-lo, st.BlockOff[le*p+src]+lo
				chunkRowsPerLE[le] += hi - lo
			}
			bc += chunkRowsPerLE[le]
		}
		reorder := comp.MemBound(kp.class, 2*int64(bc)*int64(h)*elem)
		if fused {
			// One chunk: the received rows reorder in one contiguous pass
			// inside the fused kernel, which computes dX and dW of each
			// expert segment together, before the reverse exchange.
			r.Compute(StageBwdExperts, kp.gemms(comp, cfg, st.RowsPerLE)*2+kp.act(comp, cfg, bExp))
		} else {
			// Landing the chunk's sub-blocks in the full buffer, then the
			// dX chain over them: dHidAct = dY·W2ᵀ, GeLU backward,
			// dExpertIn = dHidPre·W1ᵀ.
			r.Compute(StageOthers, reorder)
			r.Compute(StageBwdExperts, kp.gemms(comp, cfg, chunkRowsPerLE)+kp.act(comp, cfg, bc))
		}
		if opts.Numeric {
			landBlocks(grads.DOut.Data, recv, n, at, h)
			grads.dxChain(st.HidPre, params, n, at, p)
		}

		// Pack this chunk's input gradients src-major and send them home;
		// the transfer hides behind the remaining chunks' GEMMs and the
		// deferred dW computation.
		sendBack := parts[(chunks+c)*p : (chunks+c+1)*p]
		packBlocks(sendBack, grads.DIn, n, at, h, elem)
		if !fused {
			// The return pack of the sub-blocks.
			r.Compute(StageOthers, reorder)
		}
		dispatchX[c] = r.AlltoAllVChunk(g, StageBwdDispA2A, sendBack, chunks)
	}

	// --- dW GEMMs over the complete segments ------------------------------
	if !fused {
		// Deferred dW GEMMs, the bubble filler of the in-flight reverse
		// dispatch transfers; the fused kernel charged them already.
		r.Compute(StageBwdExperts, kp.gemms(comp, cfg, st.RowsPerLE))
	}
	var dW1, dW2 []*tensor.Tensor
	if opts.Numeric {
		dW1, dW2 = grads.DW(pool, st.ExpertIn, st.HidAct, params, st.RowsPerLE)
	}
	if opts.OnDWReady != nil {
		// dW is complete and no blocking collective remains (one chunk: the
		// reverse dispatch has retired; chunked: its chunks are in flight),
		// so gradient sync issued here queues behind them on the comm
		// stream and overlaps the drain, the gather backward and every
		// earlier layer's backward compute.
		opts.OnDWReady()
	}

	// --- Drain the reverse dispatch chunks into dDispIn -------------------
	var dDispIn *tensor.Tensor
	if opts.Numeric {
		dDispIn = pool.Get(b, h)
	}
	for c := 0; c < chunks; c++ {
		back := dispatchX[c].Wait()
		if opts.Numeric {
			unpackSegments(dDispIn, back, pft.TokensPerExpert, segStart, epr, h, chunks, c)
		}
	}

	// --- Gather backward (holes add nothing) ------------------------------
	r.Compute(StageBwdDispatch, kp.bufferPass(comp, cfg, st.S, b, elem))
	var dx *tensor.Tensor
	if opts.Numeric {
		dx = kernels.GatherBackward(dDispIn, pft.TokenIDs, st.S)
		pool.Put(dDispIn)
		// The forward state is consumed: its saved intermediates return to
		// the arena so the next layer's forward pass reuses them.
		pool.PutAll(st.ExpertIn, st.HidPre, st.HidAct, st.CombineIn)
		st.ExpertIn, st.HidPre, st.HidAct, st.CombineIn = nil, nil, nil, nil
	}

	return BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
}

// PaddedBackward is PFTBackward for the state of PaddedForward, which
// carries its layout; it stays for callers written against the padded
// pair.
func PaddedBackward(r *simrt.Rank, g *simrt.Group, cfg Config, st *PFTFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {
	return PFTBackward(r, g, cfg, st, dOut, params, opts)
}
