package moe

// The chunked comm/compute-overlap model of the one flat pipeline body in
// this package (PFTForward / PFTBackward; PaddedForward and PaddedBackward
// run the same body over the capacity-padded layout, and RBD reuses its
// expert-stage helpers), the optimisation FastMoE's smart scheduling and
// Megatron Core's MoE overlap apply to hide the paper's dominant
// all-to-all cost (Fig. 11) behind the expert computation. The body is
// parameterised by the chunk count C = PipelineOpts.OverlapChunks:
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
// full expert-major layout, so the saved state — and the backward that
// consumes it — does not depend on the forward's chunk count.
//
// Expert-side geometry is described per chunk by parallel arrays indexed
// k = le*P + src (expert-major blocks): n[k] rows of block (src, le) sit
// at row at[k] of the buffer the chunk's expert stage works on.

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
// ranges packed into a fresh buffer.
func packSegments(send []simrt.Part, src *tensor.Tensor, counts, segStart []int, epr, h int, elem int64, chunks, c int) int {
	chunkRows := 0
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
			buf := make([]float32, 0, rows*h)
			for e := dst * epr; e < (dst+1)*epr; e++ {
				lo, hi := simrt.ChunkRange(counts[e], chunks, c)
				buf = append(buf, src.Data[(segStart[e]+lo)*h:(segStart[e]+hi)*h]...)
			}
			part.Data = buf
		}
		send[dst] = part
	}
	return chunkRows
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
// mode), local experts ascending, in fresh buffers.
func packBlocks(send []simrt.Part, src *tensor.Tensor, n, at []int, w int, elem int64) {
	p := len(send)
	for m := range send {
		rows := 0
		for k := m; k < len(n); k += p {
			rows += n[k]
		}
		part := simrt.Part{Bytes: int64(rows) * int64(w) * elem}
		if src != nil && rows > 0 {
			buf := make([]float32, 0, rows*w)
			for k := m; k < len(n); k += p {
				buf = append(buf, src.Data[at[k]*w:(at[k]+n[k])*w]...)
			}
			part.Data = buf
		}
		send[m] = part
	}
}

// scatterBlocks copies every block of a chunk-contiguous buffer to row
// saveAt[k] of the full expert-major layout SaveForBackward keeps.
func scatterBlocks(full, chunk *tensor.Tensor, n, at, saveAt []int) {
	w := full.Cols()
	for k, rows := range n {
		copy(full.Data[saveAt[k]*w:(saveAt[k]+rows)*w], chunk.Data[at[k]*w:])
	}
}

// expertChunk is the numeric expert FFN over one received chunk of bc
// rows, h wide in and out and f wide in between: it lands recv's blocks
// expert-major, runs GEMM₁ per local expert over rows, GeLU and GEMM₂,
// and — when the forward saves for backward (expertIn non-nil) — scatters
// the chunk's input, pre-activation and activation rows to their saveAt
// rows of the full layout. The [bc, h] output is drawn from pool and is
// the caller's to Put.
func expertChunk(pool *tensor.Pool, params *ExpertParams, recv []simrt.Part, n, at, saveAt, rows []int, bc, h, f int,
	expertIn, hidPre, hidAct *tensor.Tensor) *tensor.Tensor {
	chunkIn := pool.Get(bc, h)
	landBlocks(chunkIn.Data, recv, n, at, h)
	interm := pool.Get(bc, f)
	kernels.SequentialGEMMInto(interm, chunkIn, rows, params.W1)
	if expertIn != nil {
		scatterBlocks(expertIn, chunkIn, n, at, saveAt)
		scatterBlocks(hidPre, interm, n, at, saveAt)
	}
	tensor.GeLU(interm)
	if expertIn != nil {
		scatterBlocks(hidAct, interm, n, at, saveAt)
	}
	out := pool.Get(bc, h)
	kernels.SequentialGEMMInto(out, interm, rows, params.W2)
	pool.PutAll(chunkIn, interm)
	return out
}

// FFNGrads holds the expert-FFN backward buffers in the full expert-major
// layout of the saved forward state. Every backward in the tree (PFT,
// padded, RBD) runs its dX chains and its dW reduction through it, so the
// per-row arithmetic and the dW summation order have one definition.
type FFNGrads struct {
	DOut, DAct, DPre, DIn *tensor.Tensor // [rows, H], [rows, F], [rows, F], [rows, H]
}

// NewFFNGrads takes the four buffers from the rank arena; DW returns them.
func NewFFNGrads(pool *tensor.Pool, rows, h, f int) FFNGrads {
	return FFNGrads{pool.Get(rows, h), pool.Get(rows, f), pool.Get(rows, f), pool.Get(rows, h)}
}

// Run computes DAct = DOut·W2ᵀ, the GeLU backward and DIn = DPre·W1ᵀ over
// rows [lo, lo+rows) of local expert le. The chain is row-independent, so
// how a segment is cut into runs never changes a bit.
func (g FFNGrads) Run(hidPre *tensor.Tensor, params *ExpertParams, le, lo, rows int) {
	h, f := g.DOut.Cols(), g.DAct.Cols()
	view := func(t *tensor.Tensor, w int) *tensor.Tensor {
		return tensor.FromSlice(t.Data[lo*w:(lo+rows)*w], rows, w)
	}
	da, dp := view(g.DAct, f), view(g.DPre, f)
	tensor.MatMulTInto(da, view(g.DOut, h), params.W2[le])
	tensor.GeLUBackwardInto(dp, da, view(hidPre, f))
	tensor.MatMulTInto(view(g.DIn, h), dp, params.W1[le])
}

// dxChain runs the chain over every block of the chunk; row-adjacent blocks
// of one expert are multiplied as one run — with a single chunk, one run
// per expert.
func (g FFNGrads) dxChain(hidPre *tensor.Tensor, params *ExpertParams, n, at []int, p int) {
	for le := 0; le*p < len(n); le++ {
		lo, rows := 0, 0
		for k := le * p; k < (le+1)*p; k++ {
			if rows > 0 && n[k] > 0 && at[k] != lo+rows {
				g.Run(hidPre, params, le, lo, rows)
				rows = 0
			}
			if rows == 0 {
				lo = at[k]
			}
			rows += n[k]
		}
		if rows > 0 {
			g.Run(hidPre, params, le, lo, rows)
		}
	}
}

// DW computes the weight gradients with one TMatMul per expert over its
// complete segment (rowsPerLE rows each, contiguous and in expert order) —
// the summation order of a single chunk, so the gradients are bit-identical
// for any chunk count (per-chunk partial dW accumulation would reorder the
// float sums) — and returns the gradient buffers to the arena.
func (g FFNGrads) DW(pool *tensor.Pool, expertIn, hidAct *tensor.Tensor, params *ExpertParams, rowsPerLE []int) (dW1, dW2 []*tensor.Tensor) {
	h, f := g.DOut.Cols(), g.DAct.Cols()
	dW1, dW2 = newGradTensors(params.W1), newGradTensors(params.W2)
	off := 0
	for le, rows := range rowsPerLE {
		if rows == 0 {
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

// newGradTensors allocates one zero gradient tensor per weight tensor.
func newGradTensors(ws []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for e, w := range ws {
		out[e] = tensor.New(w.Rows(), w.Cols())
	}
	return out
}
