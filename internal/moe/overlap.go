package moe

// The chunked comm/compute-overlap model of the flat all-to-all exchange in
// this package (PFTForward / PFTBackward; PaddedForward and PaddedBackward
// run it over the capacity-padded layout; RBD is the one body's other
// Exchange, with its own schedule in package rbd), the optimisation
// FastMoE's smart scheduling and Megatron Core's MoE overlap apply to hide
// the paper's dominant all-to-all cost (Fig. 11) behind the expert
// computation. The exchange is parameterised by the chunk count C =
// PipelineOpts.OverlapChunks, and each chunk is one batch of the body:
//
//   - The routed rows are split into C chunks along each (destination
//     rank, local expert) segment — capacity slots for the padded layout,
//     whose segments are all C rows long — using the same ChunkRange split
//     on both ends so no extra metadata crosses the wire (full per-expert
//     counts ride with chunk 0 only, and not at all for the padded layout).
//   - All C source-side all-to-alls are issued up front through
//     Rank.AlltoAllVChunk; they serialise on the rank's communication
//     stream, so chunk i+1's transfer flies while chunk i's expert GEMMs
//     run on the device.
//   - Each chunk's return all-to-all is issued right after its GEMMs,
//     overlapping the remaining chunks' compute; the waits at the end
//     charge only the uncovered tail. The backward defers the dW GEMMs to
//     the complete segments, where they hide the last return transfers.
//
// C = 1 is the blocking pipeline, by two rules rather than a second body.
// (a) AlltoAllVChunk makes a single chunk's exchange the blocking
// collective. (b) The passes that exist only because rows are chunked are
// skipped: with one chunk a destination's rows are one contiguous run of
// the source buffer, sent as a view, so the strided pack (and, in the PFT
// backward, the strided landing and return pack) is neither executed nor
// charged, and X-MoE's expert backward is the fused per-expert dX + dW
// kernel charged once before the return exchange instead of a dX chain
// per chunk plus deferred dW GEMMs. Each such site is a `chunks > 1` (in
// the backward, `fused`) guard naming the pass. The padded layout's
// backward is never fused: its frameworks reorder before and after every
// chunk's dX chain and run the dW GEMMs after the loop.
//
// Numeric output is bit-identical for every C: the expert FFN is
// row-independent, chunking only re-times row groups without reordering
// any per-row arithmetic, every row is written to the position a single
// chunk would use, and dW is always one reduction over the full segment.
// With SaveForBackward each chunk's intermediates are scattered into the
// full expert-major layout (a single chunk's buffers are that layout), so
// the saved state — and the backward that consumes it — does not depend on
// the forward's chunk count.
//
// Expert-side geometry is described per chunk by parallel arrays indexed
// k = le*P + src (expert-major blocks): n[k] rows of block (src, le) sit
// at row at[k] of the chunk's contiguous buffer and at row saveAt[k] of
// the full layout, where the backward lands its gradients.

import (
	"xmoe/internal/kernels"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// packSegments fills send (one part per destination rank) with chunk c of
// every expert segment of the PFT-ordered [B, h] buffer src (nil in
// symbolic mode) and returns the chunk's row count. counts and segStart
// are the PFT's per-expert row counts and segment offsets. A single chunk
// is each destination's whole contiguous run and is sent as a view — src
// must then outlive the exchange; a real chunk is strided per-expert row
// ranges packed into one buffer lent from r's arena, returned as lent for
// the exchange to name and the caller to Done.
func packSegments(r *simrt.Rank, send []simrt.Part, src *tensor.Tensor, counts, segStart []int, epr, h int, elem int64, chunks, c int) (chunkRows int, lent *simrt.Loan) {
	if src != nil && chunks > 1 {
		n := 0
		for _, cnt := range counts {
			lo, hi := simrt.ChunkRange(cnt, chunks, c)
			n += hi - lo
		}
		if n > 0 {
			lent = r.Lend(n * h)
		}
	}
	pos := 0
	for dst := range send {
		rows := 0
		for e := dst * epr; e < (dst+1)*epr; e++ {
			lo, hi := simrt.ChunkRange(counts[e], chunks, c)
			rows += hi - lo
		}
		chunkRows += rows
		part := simrt.Part{Bytes: int64(rows) * int64(h) * elem}
		switch {
		case src == nil || rows == 0:
		case chunks == 1:
			lo := segStart[dst*epr]
			part.Data = src.Data[lo*h : (lo+rows)*h]
		default:
			start := pos
			for e := dst * epr; e < (dst+1)*epr; e++ {
				lo, hi := simrt.ChunkRange(counts[e], chunks, c)
				pos += copy(lent.Data[pos:], src.Data[(segStart[e]+lo)*h:(segStart[e]+hi)*h])
			}
			part.Data = lent.Data[start:pos]
		}
		send[dst] = part
	}
	return chunkRows, lent
}

// unpackSegments is the inverse on the same rank: parts[m] holds chunk c
// of member m's experts' rows, experts ascending, and lands in the
// PFT-ordered buffer dst.
func unpackSegments(dst *tensor.Tensor, parts []simrt.Part, counts, segStart []int, epr, h, chunks, c int) {
	for m, part := range parts {
		pos := 0
		for e := m * epr; e < (m+1)*epr; e++ {
			lo, hi := simrt.ChunkRange(counts[e], chunks, c)
			pos += copy(dst.Data[(segStart[e]+lo)*h:(segStart[e]+hi)*h], part.Data[pos:])
		}
	}
}

// landBlocks copies the received src-major parts (each holding its blocks
// in local-expert order) to their expert-major rows in dst, w floats wide.
func landBlocks(dst []float32, recv []simrt.Part, n, at []int, w int) {
	p := len(recv)
	for src, part := range recv {
		pos := 0
		for k := src; k < len(n); k += p {
			pos += copy(dst[at[k]*w:(at[k]+n[k])*w], part.Data[pos:])
		}
	}
}

// packBlocks is the reverse: it fills send (one part per source rank) with
// that rank's blocks of the expert-major buffer src (nil in symbolic
// mode), local experts ascending, in one buffer lent from r's arena,
// returned for the exchange to name and the caller to Done.
func packBlocks(r *simrt.Rank, send []simrt.Part, src *tensor.Tensor, n, at []int, w int, elem int64) (lent *simrt.Loan) {
	if src != nil {
		total := 0
		for _, rows := range n {
			total += rows
		}
		if total > 0 {
			lent = r.Lend(total * w)
		}
	}
	p, pos := len(send), 0
	for m := range send {
		rows := 0
		for k := m; k < len(n); k += p {
			rows += n[k]
		}
		part := simrt.Part{Bytes: int64(rows) * int64(w) * elem}
		if lent != nil && rows > 0 {
			start := pos
			for k := m; k < len(n); k += p {
				pos += copy(lent.Data[pos:], src.Data[at[k]*w:(at[k]+n[k])*w])
			}
			part.Data = lent.Data[start:pos]
		}
		send[m] = part
	}
	return lent
}

// scatterBlocks copies every block of a batch buffer to row saveAt[k] of
// the full expert-major layout SaveForBackward keeps.
func scatterBlocks(full, batch *tensor.Tensor, n, at, saveAt []int) {
	w := full.Cols()
	for k, rows := range n {
		copy(full.Data[saveAt[k]*w:(saveAt[k]+rows)*w], batch.Data[at[k]*w:])
	}
}

// ffn is the numeric expert FFN over in, rows[le] rows of each local
// expert in turn: pre = in·W1, act = GeLU(pre), out = act·W2, all drawn
// from pool. act is pre itself unless keep, when the backward needs the
// GeLU′ factor too: then act is a second buffer and pre is overwritten
// with GeLU′(pre), both from one tanh per element.
func (p *ExpertParams) ffn(pool *tensor.Pool, in *tensor.Tensor, rows []int, keep bool) (pre, act, out *tensor.Tensor) {
	n, h, f := in.Rows(), in.Cols(), p.W1[0].Cols()
	pre = pool.Get(n, f)
	kernels.SequentialGEMMInto(pre, in, rows, p.W1)
	act = pre
	if keep {
		act = pool.Get(n, f)
		tensor.GeLUWithGrad(act, pre)
	} else {
		tensor.GeLU(act)
	}
	out = pool.Get(n, h)
	kernels.SequentialGEMMInto(out, act, rows, p.W2)
	return pre, act, out
}

// ffnGrads holds the expert-FFN backward buffers in the full expert-major
// layout of the saved forward state: the one backward body runs its dX
// chains and its dW reduction through it, so the per-row arithmetic and the
// dW summation order have one definition.
type ffnGrads struct {
	DOut, DAct, DPre, DIn *tensor.Tensor // [rows, H], [rows, F], [rows, F], [rows, H]
}

// newFFNGrads takes the four buffers from the rank arena; dW returns them.
func newFFNGrads(pool *tensor.Pool, rows, h, f int) ffnGrads {
	return ffnGrads{pool.Get(rows, h), pool.Get(rows, f), pool.Get(rows, f), pool.Get(rows, h)}
}

// run computes DAct = DOut·W2ᵀ, the GeLU backward DPre = GeLU′ ⊙ DAct and
// DIn = DPre·W1ᵀ over rows [lo, lo+rows) of local expert le, where geluPrime
// holds the forward's saved GeLU′. The chain is row-independent, so how a
// segment is cut into runs never changes a bit.
func (g ffnGrads) run(geluPrime *tensor.Tensor, params *ExpertParams, le, lo, rows int) {
	h, f := g.DOut.Cols(), g.DAct.Cols()
	view := func(t *tensor.Tensor, w int) *tensor.Tensor {
		return tensor.FromSlice(t.Data[lo*w:(lo+rows)*w], rows, w)
	}
	da, dp := view(g.DAct, f), view(g.DPre, f)
	tensor.MatMulTInto(da, view(g.DOut, h), params.W2[le])
	tensor.MulInto(dp, view(geluPrime, f), da)
	tensor.MatMulTInto(view(g.DIn, h), dp, params.W1[le])
}

// dxChain runs the chain over the blocks n/at of a batch (see Batch);
// row-adjacent blocks of one expert are multiplied as one run — with a
// single chunk, one run per expert.
func (g ffnGrads) dxChain(geluPrime *tensor.Tensor, params *ExpertParams, n, at []int) {
	per := len(n) / len(params.W1)
	for le := 0; le*per < len(n); le++ {
		lo, rows := 0, 0
		for k := le * per; k < (le+1)*per; k++ {
			if rows > 0 && n[k] > 0 && at[k] != lo+rows {
				g.run(geluPrime, params, le, lo, rows)
				rows = 0
			}
			if rows == 0 {
				lo = at[k]
			}
			rows += n[k]
		}
		if rows > 0 {
			g.run(geluPrime, params, le, lo, rows)
		}
	}
}

// dW computes the weight gradients with one TMatMul per expert over its
// complete segment (rowsPerLE rows each, contiguous and in expert order) —
// the summation order of a single chunk, so the gradients are bit-identical
// for any chunk count (per-chunk partial dW accumulation would reorder the
// float sums) — and returns the gradient buffers to the arena. The
// weight gradients come from the arena too; an expert without rows gets
// zeros.
func (g ffnGrads) dW(pool *tensor.Pool, expertIn, hidAct *tensor.Tensor, params *ExpertParams, rowsPerLE []int) (dW1, dW2 []*tensor.Tensor) {
	h, f := g.DOut.Cols(), g.DAct.Cols()
	dW1, dW2 = gradTensors(pool, params.W1), gradTensors(pool, params.W2)
	off := 0
	for le, rows := range rowsPerLE {
		if rows == 0 {
			dW1[le].Zero()
			dW2[le].Zero()
			continue
		}
		seg := func(t *tensor.Tensor, w int) *tensor.Tensor {
			return tensor.FromSlice(t.Data[off*w:(off+rows)*w], rows, w)
		}
		tensor.TMatMulInto(dW2[le], seg(hidAct, f), seg(g.DOut, h))
		tensor.TMatMulInto(dW1[le], seg(expertIn, h), seg(g.DPre, f))
		off += rows
	}
	pool.PutAll(g.DOut, g.DAct, g.DPre, g.DIn)
	return dW1, dW2
}

// gradTensors takes one gradient tensor per weight tensor from pool.
func gradTensors(pool *tensor.Pool, ws []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for e, w := range ws {
		out[e] = pool.Get(w.Rows(), w.Cols())
	}
	return out
}
