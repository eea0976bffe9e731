// Package kernels implements the cross-platform sparse and irregular
// kernels of X-MoE's padding-free pipeline (paper §4.1.2): the gather
// kernel that builds the dispatch buffer from ERI-array indices, the
// scatter kernel that reassembles and weight-scales expert outputs in the
// combine stage, and the sequential GEMM that processes uneven per-expert
// token segments without zero-padding.
//
// The paper implements these in Triton, scheduling one thread-block per
// token row with contiguous threads across the hidden dimension for
// coalesced access. Here each "thread block" is a row processed inside a
// goroutine-pool chunk (tensor.ParallelFor), preserving the same
// row-parallel structure and contiguous row access pattern.
//
// Every kernel has an allocate-fresh form (returns new tensors) and an
// *Into form writing into caller-provided buffers, typically drawn from a
// tensor.Pool. The two forms are bit-identical; Into kernels that
// accumulate rather than fully overwrite require a zero-filled
// destination (as returned by tensor.New or tensor.Pool.Get).
package kernels

import (
	"fmt"

	"xmoe/internal/tensor"
)

// Gather builds the dispatch buffer from the gate output:
//
//	dispatchIn[i, :] = gateOut[tokenIDs[i], :]
//
// gateOut is [S, H]; the result is [B, H] with B = len(tokenIDs).
func Gather(gateOut *tensor.Tensor, tokenIDs []int) *tensor.Tensor {
	out := tensor.New(len(tokenIDs), gateOut.Cols())
	GatherInto(out, gateOut, tokenIDs)
	return out
}

// GatherInto is Gather into the preallocated out [B, H], which is fully
// overwritten.
func GatherInto(out, gateOut *tensor.Tensor, tokenIDs []int) {
	b := len(tokenIDs)
	if out.Rows() != b || out.Cols() != gateOut.Cols() {
		panic(fmt.Sprintf("kernels: gather dst shape %v, want [%d,%d]", out.Shape(), b, gateOut.Cols()))
	}
	tensor.ParallelFor(b, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i), gateOut.Row(tokenIDs[i]))
		}
	})
}

// GatherBackward scatters row gradients back through Gather: it returns
// dGateOut [S, H] with dGateOut[tokenIDs[i], :] += dDispatchIn[i, :].
// Multiple dispatch rows may map to one token (top-k routing), so this is
// an accumulating scatter grouped by destination row to stay race-free
// under parallel execution.
func GatherBackward(dDispatchIn *tensor.Tensor, tokenIDs []int, numTokens int) *tensor.Tensor {
	out := tensor.New(numTokens, dDispatchIn.Cols())
	GatherBackwardInto(out, dDispatchIn, tokenIDs)
	return out
}

// GatherBackwardInto is GatherBackward into the preallocated out
// [numTokens, H]. out must be zero-filled; gradients are accumulated.
func GatherBackwardInto(out, dDispatchIn *tensor.Tensor, tokenIDs []int) {
	if out.Cols() != dDispatchIn.Cols() || dDispatchIn.Rows() != len(tokenIDs) {
		panic(fmt.Sprintf("kernels: gather-backward dst shape %v for %d ids of width %d",
			out.Shape(), len(tokenIDs), dDispatchIn.Cols()))
	}
	numTokens := out.Rows()
	byToken := GroupByDestination(tokenIDs, numTokens)
	tensor.ParallelFor(numTokens, 8, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			dst := out.Row(t)
			for _, i := range byToken.Sources(t) {
				src := dDispatchIn.Row(i)
				for j, v := range src {
					dst[j] += v
				}
			}
		}
	})
}

// ScatterCombine reassembles the MoE layer output from expert results:
//
//	combineOut[tokenIDs[i], :] += mlpOut[i, :] * weights[i]
//
// mlpOut is [B, H]; the result is [numTokens, H]. The accumulation over
// the k expert outputs of each token is the combine-stage weighted sum.
// Rows are grouped by destination token so parallel workers never write
// the same output row.
func ScatterCombine(mlpOut *tensor.Tensor, tokenIDs []int, weights []float32, numTokens int) *tensor.Tensor {
	out := tensor.New(numTokens, mlpOut.Cols())
	ScatterCombineInto(out, mlpOut, tokenIDs, weights)
	return out
}

// ScatterCombineInto is ScatterCombine into the preallocated out
// [numTokens, H]. out must be zero-filled; rows are accumulated.
func ScatterCombineInto(out, mlpOut *tensor.Tensor, tokenIDs []int, weights []float32) {
	if len(tokenIDs) != mlpOut.Rows() || len(weights) != mlpOut.Rows() {
		panic(fmt.Sprintf("kernels: scatter arity mismatch: %d rows, %d ids, %d weights",
			mlpOut.Rows(), len(tokenIDs), len(weights)))
	}
	if out.Cols() != mlpOut.Cols() {
		panic(fmt.Sprintf("kernels: scatter dst width %d, rows are %d wide", out.Cols(), mlpOut.Cols()))
	}
	numTokens := out.Rows()
	byToken := GroupByDestination(tokenIDs, numTokens)
	tensor.ParallelFor(numTokens, 8, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			dst := out.Row(t)
			for _, i := range byToken.Sources(t) {
				w := weights[i]
				src := mlpOut.Row(i)
				for j, v := range src {
					dst[j] += w * v
				}
			}
		}
	})
}

// DestIndex is a CSR-style inverse of a destination-id array: the sources
// mapping to destination t are Sources(t), in ascending source order.
// Building it costs three slice allocations regardless of the destination
// count, replacing the per-destination sub-slices the scatter kernels
// previously allocated. The routing layers reuse it wherever a
// counting-sort inverse is needed (e.g. RBD's token bucketing).
type DestIndex struct {
	offsets []int
	perm    []int
}

// Sources returns the source indices mapping to destination t.
func (d DestIndex) Sources(t int) []int { return d.perm[d.offsets[t]:d.offsets[t+1]] }

// GroupByDestination builds, for each destination row in [0, n), the list
// of source indices mapping to it (a counting-sort style inverse of ids).
func GroupByDestination(ids []int, n int) DestIndex {
	offsets := make([]int, n+1)
	for _, t := range ids {
		if t < 0 || t >= n {
			panic(fmt.Sprintf("kernels: destination index %d outside [0,%d)", t, n))
		}
		offsets[t+1]++
	}
	for t := 0; t < n; t++ {
		offsets[t+1] += offsets[t]
	}
	perm := make([]int, len(ids))
	next := make([]int, n)
	copy(next, offsets[:n])
	for i, t := range ids {
		perm[next[t]] = i
		next[t]++
	}
	return DestIndex{offsets: offsets, perm: perm}
}

// SequentialGEMM multiplies uneven per-expert row segments of x by each
// expert's weight matrix: segment e (rows[e] consecutive rows of x) is
// multiplied by weights[e]. This is the padding-free expert computation:
// one GEMM launch per local expert over exactly the tokens routed to it
// (paper §4.1.2: "launching E_local GeMMs").
//
// x is [B, K] with B = sum(rows); weights[e] is [K, N]. Returns [B, N].
func SequentialGEMM(x *tensor.Tensor, rows []int, weights []*tensor.Tensor) *tensor.Tensor {
	n := 0
	if len(weights) > 0 {
		n = weights[0].Cols()
	}
	out := tensor.New(x.Rows(), n)
	SequentialGEMMInto(out, x, rows, weights)
	return out
}

// SequentialGEMMInto is SequentialGEMM into the preallocated out [B, N],
// which is fully overwritten: the segments tile its rows, and a zero-row
// segment owns none of them.
func SequentialGEMMInto(out, x *tensor.Tensor, rows []int, weights []*tensor.Tensor) {
	k := x.Cols()
	n := 0
	if len(weights) > 0 {
		n = weights[0].Cols()
	}
	checkSegments(rows, weights, x.Rows(), k, n)
	if out.Rows() != x.Rows() || out.Cols() != n {
		panic(fmt.Sprintf("kernels: sequential-gemm dst shape %v, want [%d,%d]", out.Shape(), x.Rows(), n))
	}
	off := 0
	for e, r := range rows {
		if r == 0 {
			continue
		}
		seg := tensor.FromSlice(x.Data[off*k:(off+r)*k], r, k)
		dst := tensor.FromSlice(out.Data[off*n:(off+r)*n], r, n)
		tensor.MatMulInto(dst, seg, weights[e])
		off += r
	}
}

// checkSegments panics unless rows cuts a [total, k] input into one
// segment per weight matrix: as many non-negative counts as weights,
// summing to total, and a [k, n] weight for every segment that has rows.
// SequentialGEMMInto runs it before it writes anything.
func checkSegments(rows []int, weights []*tensor.Tensor, total, k, n int) {
	if len(rows) != len(weights) {
		panic(fmt.Sprintf("kernels: %d segments but %d weight matrices", len(rows), len(weights)))
	}
	covered := 0
	for e, r := range rows {
		if r < 0 {
			panic(fmt.Sprintf("kernels: expert %d has %d rows", e, r))
		}
		covered += r
	}
	if covered != total {
		panic(fmt.Sprintf("kernels: segments cover %d rows, x has %d", covered, total))
	}
	for e, w := range weights {
		if rows[e] > 0 && (w.Rows() != k || w.Cols() != n) {
			panic(fmt.Sprintf("kernels: expert %d weight shape %v, want [%d,%d]", e, w.Shape(), k, n))
		}
	}
}

// PaddedDispatch builds the conventional zero-padded expert buffer used by
// GShard-style frameworks: a [E, C, H] tensor where slot (e, c) holds the
// token assigned to position c of expert e's buffer, and unused slots stay
// zero (paper Fig. 2). slotToken[e][c] gives the source token index or -1.
func PaddedDispatch(x *tensor.Tensor, slotToken [][]int, capacity int) *tensor.Tensor {
	out := tensor.New(len(slotToken), capacity, x.Cols())
	PaddedDispatchInto(out, x, slotToken, capacity)
	return out
}

// PaddedDispatchInto is PaddedDispatch into the preallocated out
// [E, C, H]. out must be zero-filled: only occupied slots are written.
func PaddedDispatchInto(out, x *tensor.Tensor, slotToken [][]int, capacity int) {
	h := x.Cols()
	e := len(slotToken)
	tensor.ParallelFor(e, 1, func(lo, hi int) {
		for exp := lo; exp < hi; exp++ {
			for c, tok := range slotToken[exp] {
				if tok < 0 {
					continue
				}
				copy(out.Data[(exp*capacity+c)*h:(exp*capacity+c+1)*h], x.Row(tok))
			}
		}
	})
}

// PaddedCombine reverses PaddedDispatch with combine-weight scaling:
// output[tok, :] += buffer[e, c, :] * weight for each occupied slot.
func PaddedCombine(buffer *tensor.Tensor, slotToken [][]int, slotWeight [][]float32, capacity, numTokens int) *tensor.Tensor {
	h := buffer.Cols()
	if buffer.Rank() == 3 {
		h = buffer.Dim(2)
	}
	out := tensor.New(numTokens, h)
	PaddedCombineInto(out, buffer, slotToken, slotWeight, capacity)
	return out
}

// PaddedCombineInto is PaddedCombine into the preallocated out
// [numTokens, H]. out must be zero-filled; slots are accumulated.
func PaddedCombineInto(out, buffer *tensor.Tensor, slotToken [][]int, slotWeight [][]float32, capacity int) {
	h := buffer.Cols()
	if buffer.Rank() == 3 {
		h = buffer.Dim(2)
	}
	for e := range slotToken {
		for c, tok := range slotToken[e] {
			if tok < 0 {
				continue
			}
			w := slotWeight[e][c]
			src := buffer.Data[(e*capacity+c)*h : (e*capacity+c+1)*h]
			dst := out.Row(tok)
			for j, v := range src {
				dst[j] += w * v
			}
		}
	}
}
