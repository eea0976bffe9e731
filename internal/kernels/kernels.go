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
// Every kernel has an *Into form writing into a caller-provided buffer,
// typically drawn from a tensor.Pool, whose contents are unspecified;
// Gather and SequentialGEMM also have allocate-fresh forms. Every Into
// kernel fully overwrites its destination (the accumulating ones clear
// each row just before they add into it), so a pooled call is
// bit-identical to one on a zero-filled buffer.
package kernels

import (
	"fmt"

	"xmoe/internal/tensor"
)

// Gather builds the dispatch buffer from the gate output:
//
//	dispatchIn[i, :] = gateOut[tokenIDs[i], :]
//
// gateOut is [S, H]; the result is [B, H] with B = len(tokenIDs). A
// negative id is a hole (an empty slot of the capacity-padded layout) and
// gathers as a zero row; every kernel here skips holes.
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
			if t := tokenIDs[i]; t >= 0 {
				copy(out.Row(i), gateOut.Row(t))
			} else {
				clear(out.Row(i))
			}
		}
	})
}

// GatherBackwardInto scatters row gradients back through Gather into
// out [numTokens, H]: out[tokenIDs[i], :] += dDispatchIn[i, :]. Multiple
// dispatch rows may map to one token (top-k routing), so this is an
// accumulating scatter grouped by destination row, in ascending row
// order, to stay race-free under parallel execution. out is fully
// overwritten: each row is cleared just before its gradients are added.
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
			clear(dst)
			for _, i := range byToken.Sources(t) {
				src := dDispatchIn.Row(i)
				for j, v := range src {
					dst[j] += v
				}
			}
		}
	})
}

// ScatterCombineInto reassembles the MoE layer output from expert
// results into out [numTokens, H]:
//
//	out[tokenIDs[i], :] += mlpOut[i, :] * weights[i]
//
// mlpOut is [B, H]. The accumulation over the k expert outputs of each
// token is the combine-stage weighted sum, in ascending row order. Rows
// are grouped by destination token so parallel workers never write the
// same output row. out is fully overwritten: each row is cleared just
// before its expert outputs are added.
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
			clear(dst)
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
// mapping to destination t are Sources(t), in ascending source order. A
// negative id is a hole and maps to no destination.
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
		if t >= n {
			panic(fmt.Sprintf("kernels: destination index %d outside [0,%d)", t, n))
		}
		if t >= 0 {
			offsets[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		offsets[t+1] += offsets[t]
	}
	perm := make([]int, offsets[n])
	next := make([]int, n)
	copy(next, offsets[:n])
	for i, t := range ids {
		if t >= 0 {
			perm[next[t]] = i
			next[t]++
		}
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
