package moe

import (
	"xmoe/internal/kernels"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Exchange is what a transport changes inside the one MoE layer body
// (Forward and the backward behind PFTBackward): how the layout's rows
// travel from their source rank to the experts that own them and back. The
// paper presents RBD as a replacement for the dispatch and combine stages
// of the padding-free pipeline only (§4.2), and Megatron Core keeps one MoE
// layer behind interchangeable token dispatchers; the gate, the buffer
// dispatch gather, the expert FFN charges and math, the memory tags of the
// expert buffers and the deferred dW stay in the body, which the exchange
// calls back (Experts) once per expert batch it lands.
//
// One value serves one layer call on one rank, forward and then backward.
// Its index tables come from a CallTables set, drawn when the forward
// starts and released when the call ends: after the backward's last drain,
// or the forward's when it saves nothing for a backward. The flat
// all-to-all of the PFT and padded pipelines (this file) and rbd's State
// are the two implementations.
type Exchange interface {
	// Layout reports whether the exchange moves the capacity-padded layout
	// and whether it reads the layout's rows in a symbolic pass too. A
	// symbolic pass builds those rows in a Scratch set, which the exchange
	// returns with PFT.ReleaseScratch once it has read them; the PFT
	// carries counts only from then on.
	Layout() (padded, rows bool)
	// Forward moves pft's rows for a layer of s local tokens (rows is the
	// [B, H] layout-ordered buffer; nil makes the pass symbolic) to the
	// experts and back. It lands the expert batches one at a time,
	// charging each one's reorder or reconstruct pass, hands each to
	// e.Forward, whose output it recycles once sent, and finishes the
	// combine into the [s, H] output (nil when symbolic). It charges the
	// output buffer and releases its own buffers.
	Forward(r *simrt.Rank, s int, pft *PFT, rows *tensor.Tensor, opts PipelineOpts, e Experts) *tensor.Tensor
	// Backward mirrors Forward for the output gradient dOut: it lands each
	// gradient batch in dst, the full-layout expert-output gradient, hands
	// it to e.Backward, and returns dX and the combine-weight gradient of
	// every layout row (a nil dOut makes the pass symbolic; dst and the
	// results are nil then). Once the last batch's input gradients are on
	// their way it calls e.DW, and opts.OnDWReady once no blocking
	// collective of its own remains.
	Backward(r *simrt.Rank, dOut, dst *tensor.Tensor, opts PipelineOpts, e Experts) (dx *tensor.Tensor, dWeights []float32)
}

// Experts is the layer body's side of an Exchange: the expert stage every
// landed batch is handed to, and the deferred dW.
type Experts interface {
	// Forward runs the expert FFN of one batch and returns its output,
	// row-aligned with the batch's In (nil when In is).
	Forward(Batch) *tensor.Tensor
	// Backward runs the dX chain of one gradient batch and returns the
	// full-layout input gradient (nil when symbolic).
	Backward(Batch) *tensor.Tensor
	// DW computes the weight gradients over the complete segments.
	DW()
}

// Batch is one group of expert rows an Exchange hands the layer body.
type Batch struct {
	// Rows is how many of the batch's rows each local expert gets: what
	// the expert stage charges.
	Rows []int
	// Full is the full layout's rows per local expert, set on the forward
	// batch that first knows them. The full layout holds each local
	// expert's rows contiguously, experts ascending; the saved state and
	// the backward keep it.
	Full []int
	// In (forward, numeric) is the input of the batch's expert FFN, each
	// local expert's rows contiguous, experts ascending: the batch's Rows,
	// or the whole full layout when N is nil. It is nil when the batch's
	// rows run with a later batch's.
	In *tensor.Tensor
	// N and At (numeric) locate the batch's blocks: block k, of local
	// expert k / (len(N) / experts per rank), is N[k] rows at row At[k] of
	// In (forward) or of the full layout (backward), and (forward) at row
	// SaveAt[k] of the full layout.
	N, At, SaveAt []int
}

// flat is the flat uneven all-to-all of the PFT and padded pipelines: every
// layout row crosses once, straight to its expert's rank, in opts.Chunks()
// chunks that are also the batches (see overlap.go).
type flat struct {
	g      *simrt.Group
	cfg    Config
	padded bool
	s      int
	pft    *PFT
	// The geometry, one int backing: segStart[e] is expert e's segment
	// offset in the layout, recvCounts[src*EPR+le] the rows src sent local
	// expert le, fullAt[le*P+src] the full-layout row of that block and
	// fullRows[le] local expert le's rows; per chunk, n/at/saveAt are as
	// overlap.go describes and rows the rows per local expert.
	segStart, recvCounts, fullAt, fullRows, n, at, saveAt, rows []int

	// combineIn (numeric) holds the returned rows in layout order, which the
	// scatter combine's backward reads.
	combineIn *tensor.Tensor
	// ct holds the geometry and the part and exchange lists of both passes,
	// from the forward's start to the end of the call. No peer reads them
	// after the pricer has copied the parts, which is before any Wait
	// returns.
	ct *CallTables
}

func (x *flat) Layout() (padded, rows bool) { return x.padded, false }

// fusedBackward reports X-MoE's single-chunk expert backward, one fused dX
// + dW kernel per expert segment (overlap.go), which the padded layout's
// frameworks never run.
func fusedBackward(chunks int, padded bool) bool { return chunks == 1 && !padded }

// chunk fills n/at/saveAt/rows with chunk c's blocks and returns its rows.
func (x *flat) chunk(chunks, c int) (bc int) {
	p, epr := x.g.Size(), len(x.rows)
	for le := 0; le < epr; le++ {
		x.rows[le] = 0
		for src := 0; src < p; src++ {
			lo, hi := simrt.ChunkRange(x.recvCounts[src*epr+le], chunks, c)
			k := le*p + src
			x.n[k], x.at[k], x.saveAt[k] = hi-lo, bc, x.fullAt[k]+lo
			bc += hi - lo
			x.rows[le] += hi - lo
		}
	}
	return bc
}

// drain waits for the return chunks and, numeric, lands their rows in the
// layout-ordered dst.
func (x *flat) drain(back []simrt.Exchange, dst *tensor.Tensor) {
	for c, xc := range back {
		got := xc.Wait()
		if dst != nil {
			unpackSegments(dst, got, x.pft.TokensPerExpert, x.segStart, len(x.rows), x.cfg.HModel, len(back), c)
			xc.Release()
		}
	}
}

// reorder charges a memory-bound pass over bc rows.
func (x *flat) reorder(r *simrt.Rank, kp kernelProfile, bc int) {
	r.Compute(StageOthers, r.C.Comp.MemBound(kp.class, 2*int64(bc)*int64(x.cfg.HModel)*int64(x.cfg.BytesPerElem)))
}

func (x *flat) Forward(r *simrt.Rank, s int, pft *PFT, rows *tensor.Tensor, opts PipelineOpts, ex Experts) *tensor.Tensor {
	x.s, x.pft = s, pft
	p, e, epr := x.g.Size(), x.cfg.NumExperts, epCheck(x.cfg, x.g)
	h, elem := x.cfg.HModel, int64(x.cfg.BytesPerElem)
	combElem := int64(opts.combineBytes(x.cfg))
	wireElem := combElem // the combine exchange's element size
	if x.padded {
		// Tutel's float32 combine is its materialised A_combine buffer
		// (Table 4), not the wire.
		wireElem = elem
	}
	kp, chunks := profileOf(x.padded, opts.Kernels), opts.Chunks()
	mem, pool := &r.Dev().Mem, r.Pool()
	b, numeric := pft.B(), rows != nil

	// --- Uneven all-to-all (dispatch), every chunk issued up front -------
	// Chunk c of global expert e covers rows ChunkRange(cnt_e, chunks, c)
	// of e's contiguous segment. The full per-expert counts ride with
	// chunk 0, later chunks are derived by both ends from the same split;
	// a padded layout's counts are all C, so none cross the wire.
	nb := epr * p
	x.ct = DrawCallTables()
	ints := Table[int](x.ct, e+5*nb+2*epr)
	x.segStart, x.recvCounts, x.fullAt = ints[:e:e], ints[e:e+nb:e+nb], ints[e+nb:e+2*nb:e+2*nb]
	x.n, x.at, x.saveAt = ints[e+2*nb:e+3*nb:e+3*nb], ints[e+3*nb:e+4*nb:e+4*nb], ints[e+4*nb:e+5*nb:e+5*nb]
	x.fullRows, x.rows = ints[e+5*nb:e+5*nb+epr:e+5*nb+epr], ints[e+5*nb+epr:]
	for ex, run := 0, 0; ex < e; ex++ {
		x.segStart[ex] = run
		run += pft.TokensPerExpert[ex]
	}
	// One part and one exchange backing per pass keep the allocation count
	// independent of C: chunk c's outbound parts sit at [c*P, (c+1)*P), its
	// return parts C*P further.
	parts, xs := Table[simrt.Part](x.ct, 2*chunks*p), Table[simrt.Exchange](x.ct, 2*chunks)
	out, back := xs[:chunks], xs[chunks:]
	for c := range out {
		send := parts[c*p : (c+1)*p]
		chunkRows, lent := packSegments(r, send, rows, pft.TokensPerExpert, x.segStart, epr, h, elem, chunks, c)
		if c == 0 && !x.padded {
			// Every part points at the whole counts table, and each
			// receiver reads its own EPR entries of it.
			for dst := range send {
				send[dst].Meta = &pft.TokensPerExpert
				send[dst].Bytes += int64(epr) * 8
			}
		}
		if chunks > 1 {
			// Strided per-expert chunk rows are packed into send buffers, a
			// memory-bound pass; one chunk is sent as contiguous views.
			r.Compute(StageOthers, r.C.Comp.MemBound(kp.class, 2*int64(chunkRows)*int64(h)*elem))
		}
		out[c] = r.AlltoAllVChunk(x.g, StageDispatchA2A, send, lent, chunks)
		lent.Done()
	}

	// --- Per-chunk expert batch, combine issued as soon as a chunk ends --
	bExp := 0
	for c := range out {
		recv := out[c].Wait()
		bt := Batch{Rows: x.rows}
		if c == 0 {
			// Received layout: src-major, each src's rows ordered by local
			// expert; the full layout is expert-major.
			if x.padded {
				for i := range x.recvCounts {
					x.recvCounts[i] = x.cfg.Capacity(s)
				}
			} else {
				me := x.g.IndexOf(r.ID)
				for src, part := range recv {
					copy(x.recvCounts[src*epr:(src+1)*epr], (*part.Meta.(*[]int))[me*epr:(me+1)*epr])
				}
			}
			for le := 0; le < epr; le++ {
				for src := 0; src < p; src++ {
					x.fullAt[le*p+src] = bExp
					bExp += x.recvCounts[src*epr+le]
					x.fullRows[le] += x.recvCounts[src*epr+le]
				}
			}
			mem.Alloc("A_dispatch", int64(bExp)*int64(h)*elem)
			bt.Full = x.fullRows
		}
		bc := x.chunk(chunks, c)
		// Expert-major reorder of this chunk (sequential GEMM input prep,
		// the small expert-stage overhead the paper notes in §5.4.1; the
		// permute the padded frameworks pay as a fallback op). One chunk
		// is the whole layout, in its own order.
		x.reorder(r, kp, bc)
		if numeric {
			bt.In = pool.Get(bc, h)
			landBlocks(bt.In.Data, recv, x.n, x.at, h)
			out[c].Release()
			if chunks > 1 {
				bt.N, bt.At, bt.SaveAt = x.n, x.at, x.saveAt
			}
		}
		y := ex.Forward(bt)
		// Reverse reorder to src-major, then this chunk's combine.
		x.reorder(r, kp, bc)
		sendBack := parts[(chunks+c)*p : (chunks+c+1)*p]
		lent := packBlocks(r, sendBack, y, x.n, x.at, h, wireElem)
		back[c] = r.AlltoAllVChunk(x.g, StageCombineA2A, sendBack, lent, chunks)
		lent.Done()
		pool.Put(y) // fully staged into the send-back buffers
	}

	// --- Drain combine chunks, scatter combine (holes add nothing) --------
	mem.Alloc("A_combine", int64(b)*int64(h)*combElem)
	if numeric {
		x.combineIn = pool.Get(b, h)
	}
	x.drain(back, x.combineIn)
	r.Compute(StageCombine, kp.bufferPass(r.C.Comp, x.cfg, s, b, combElem))
	var output *tensor.Tensor
	if numeric {
		output = pool.Get(s, h)
		kernels.ScatterCombineInto(output, x.combineIn, pft.TokenIDs, pft.CombineWeights)
		if !opts.SaveForBackward {
			pool.Put(x.combineIn)
		}
	}
	mem.Alloc("output", int64(s)*int64(h)*elem)
	mem.Free("A_dispatch", int64(bExp)*int64(h)*elem)
	mem.Free("A_combine", int64(b)*int64(h)*combElem)
	if !opts.SaveForBackward {
		x.release()
	}
	return output
}

// release ends the layer call, after its closing drain (the combine's in
// a forward that saves nothing, the reverse dispatch's in the backward):
// the call's tables go back to their pool.
func (x *flat) release() {
	x.ct.Release()
	x.ct = nil
}

func (x *flat) Backward(r *simrt.Rank, dOut, dst *tensor.Tensor, opts PipelineOpts, ex Experts) (*tensor.Tensor, []float32) {
	p, epr := x.g.Size(), len(x.rows)
	h, elem := x.cfg.HModel, int64(x.cfg.BytesPerElem)
	kp, chunks := profileOf(x.padded, opts.Kernels), opts.Chunks()
	fused := fusedBackward(chunks, x.padded)
	pft, pool := x.pft, r.Pool()
	b, numeric := pft.B(), dOut != nil

	// --- Per-chunk scatter-combine backward + reverse combine all-to-all --
	// The forward saved combineIn (the returned expert outputs in layout
	// order); the scatter's backward yields the per-row gradients and the
	// combine-weight gradients in one pass, a hole's both zero.
	// Forward combine moved rows experts→source; its gradient moves
	// source→experts with the dispatch segmentation.
	var dCombineIn *tensor.Tensor
	var dWeights []float32
	if numeric {
		dCombineIn = pool.Get(b, h)
		dWeights = make([]float32, b)
		for i, tok := range pft.TokenIDs {
			if tok < 0 {
				clear(dCombineIn.Row(i))
				continue
			}
			gRow, xRow, dRow := dOut.Row(tok), x.combineIn.Row(i), dCombineIn.Row(i)
			w := pft.CombineWeights[i]
			var dot float32
			for j := range gRow {
				dRow[j] = gRow[j] * w
				dot += gRow[j] * xRow[j]
			}
			dWeights[i] = dot
		}
	}
	parts, xs := Table[simrt.Part](x.ct, 2*chunks*p), Table[simrt.Exchange](x.ct, 2*chunks)
	out, back := xs[:chunks], xs[chunks:]
	for c := range out {
		send := parts[c*p : (c+1)*p]
		chunkRows, lent := packSegments(r, send, dCombineIn, pft.TokensPerExpert, x.segStart, epr, h, elem, chunks, c)
		r.Compute(StageBwdCombine, kp.bufferPass(r.C.Comp, x.cfg, x.s, chunkRows, elem))
		if chunks > 1 {
			// The strided chunk pack; one chunk is sent as contiguous views.
			r.Compute(StageOthers, r.C.Comp.MemBound(kp.class, 2*int64(chunkRows)*int64(h)*elem))
		}
		out[c] = r.AlltoAllVChunk(x.g, StageBwdCombineA2A, send, lent, chunks)
		lent.Done()
	}
	if chunks > 1 {
		pool.Put(dCombineIn) // packed chunks are fully staged
	}

	// --- Per-chunk gradient batch, reverse dispatch issued per chunk -----
	// Gradients land directly in the full layout, block (src, le) of a
	// chunk at the block's offset plus its ChunkRange start, so the dW
	// GEMMs see complete segments. Received parts are src-major with rows
	// ordered by local expert, the layout of the forward dispatch receive.
	for c := range out {
		recv := out[c].Wait()
		bc := x.chunk(chunks, c)
		if !fused {
			// Landing the chunk's sub-blocks in the full buffer; the fused
			// kernel reorders the one chunk's rows in one contiguous pass.
			x.reorder(r, kp, bc)
		}
		bt := Batch{Rows: x.rows}
		if numeric {
			landBlocks(dst.Data, recv, x.n, x.saveAt, h)
			out[c].Release()
			bt.N, bt.At = x.n, x.saveAt
		}
		dIn := ex.Backward(bt)
		// Pack this chunk's input gradients src-major and send them home;
		// the transfer hides behind the remaining chunks' GEMMs and the
		// deferred dW computation.
		sendBack := parts[(chunks+c)*p : (chunks+c+1)*p]
		lent := packBlocks(r, sendBack, dIn, x.n, x.saveAt, h, elem)
		if !fused {
			x.reorder(r, kp, bc) // the return pack of the sub-blocks
		}
		back[c] = r.AlltoAllVChunk(x.g, StageBwdDispA2A, sendBack, lent, chunks)
		lent.Done()
	}
	ex.DW()
	if opts.OnDWReady != nil {
		// No blocking collective remains (one chunk: the reverse dispatch
		// has retired; chunked: its chunks are in flight).
		opts.OnDWReady()
	}

	// --- Drain the reverse dispatch, gather backward (holes add nothing) --
	var dDispIn *tensor.Tensor
	if numeric {
		dDispIn = pool.Get(b, h)
	}
	x.drain(back, dDispIn)
	if chunks == 1 {
		// One chunk crossed as views of dCombineIn; every peer landed them
		// before posting the reverse dispatch the drain has waited for.
		pool.Put(dCombineIn)
	}
	r.Compute(StageBwdDispatch, kp.bufferPass(r.C.Comp, x.cfg, x.s, b, elem))
	x.release()
	if !numeric {
		return nil, nil
	}
	dx := pool.Get(x.s, h)
	kernels.GatherBackwardInto(dx, dDispIn, pft.TokenIDs)
	pool.PutAll(dDispIn, x.combineIn)
	x.combineIn = nil
	return dx, dWeights
}
