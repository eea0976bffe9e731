package rbd

// Native backward pass of the hierarchical RBD transport. The forward
// moved every (token, destination-node) group as one pilot row over the
// inter-node fabric (S1), reconstructed replicas intra-node (S2), and
// reversed the process on the combine side (C2 intra-node, weight-scaled
// merge onto pilots, C1 inter-node return). The backward reverses the
// reversal, stage by stage and link class by link class:
//
//	reverse CScatter  - dOut rows fan back out over the sent pilots
//	reverse C1 (inter)- merged-row gradients return to the pilot holder
//	merge backward    - pilot scaling + replica weighting differentiate;
//	                    combine-weight gradients are dot products against
//	                    the saved expert outputs
//	reverse C2 (intra)- replica-output gradients travel to the expert rank
//	FFN backward      - the layer body's dX chain + dW over the forward's
//	                    exact segments
//	reverse S2 (intra)- replica-input gradients return to the pilot holder
//	pilot reduction   - replica gradients accumulate onto their pilot row
//	reverse S1 (inter)- pilot-input gradients + combine-weight gradients
//	                    return to the source rank
//	scatter backward  - pilot gradients accumulate into dX rows
//
// Only pilot rows cross the inter-node links in either direction — the
// backward keeps RBD's redundancy bypass instead of pricing itself as the
// mirrored flat transport. Wire volumes are charged with the same
// integer-exact per-part expressions as the forward (netsim's aggregate
// per-link-class convention); the combine-weight gradients ride the
// reverse-S1 metadata at 4 bytes per pilot and replica, mirroring the
// forward's s1Meta weights.

import (
	"xmoe/internal/moe"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Backward trace stage names, mirrored against the forward RBD stages.
const (
	StageBwdCScatter = "rbd_bwd_comb_scatter" // dOut fan-out over sent pilots
	StageBwdC1A2A    = "rbd_bwd_comb_s1_a2a"  // inter-node merged-grad return
	StageBwdCMerge   = "rbd_bwd_comb_merge"   // merge backward + weight-grad dots
	StageBwdC2A2A    = "rbd_bwd_comb_s2_a2a"  // intra-node replica-grad return
	StageBwdS2A2A    = "rbd_bwd_s2_a2a"       // intra-node replica dX return
	StageBwdS2Red    = "rbd_bwd_s2_reduce"    // replica-grad reduction onto pilots
	StageBwdS1A2A    = "rbd_bwd_s1_a2a"       // inter-node pilot dX return
	StageBwdS1Scat   = "rbd_bwd_s1_scatter"   // pilot-grad scatter into dX
)

// FwdState is the saved forward state Backward consumes: the one MoE
// layer body's, whose Ex is the rank's *State. The expert-FFN
// intermediates are in the State layout; the State keeps the dispatch
// geometry and, numeric, the pre-scaling expert outputs the combine-weight
// gradients dot against. Nothing in it depends on the forward's chunk
// count, so any Backward chunk count pairs with any Forward's.
type FwdState = moe.PFTFwdState

// bwdS1Meta carries the combine-weight gradients back to the source rank
// alongside the reverse-S1 pilot-gradient rows: one float per pilot row of
// the part and one per replica the source announced in its s1Meta. The
// garbage collector owns it, not the call tables: the source reads it
// after reverse S1, the call's last exchange, has drained.
type bwdS1Meta struct {
	pilotWG   []float32
	replicaWG []float32
}

// Backward runs the distributed backward pass of the RBD-transport MoE
// layer: the one backward body (FwdState.Backward) over the forward state
// saved by Forward with opts.SaveForBackward, reversing every stage over
// the same link classes (see the package comment above). It returns dX, the
// per-local-expert weight gradients, and the per-PFT-entry combine-weight
// gradients; handed no dOut, it charges its modeled times and
// integer-exact wire volumes only. d and cfg are the forward's,
// which the state carries.
//
// opts.OverlapChunks changes the schedule (the model of moe/overlap.go):
// the reverse-C1 merged-gradient return is split by the forward C1
// return's per-part ChunkRange so each chunk's merge backward hides the
// next transfer, the intra-node reverse C2/S2 exchanges fly under the
// pilot and replica dX GEMM chains (the body's two batches) and the dW
// GEMMs, which are deferred to the complete segments, and the reverse-S1
// chunks drain into a staging buffer before one scatter pass in pilot send
// order. With one chunk every exchange is blocking and the expert backward
// is the fused dX + dW kernel, charged once between reverse C2 and reverse
// S2. Gradients are bit-identical for any chunk count.
//
// opts.OnDWReady, when set, fires exactly once, after dW completes and
// every reverse-S1 exchange is issued (one chunk: has retired).
func Backward(r *simrt.Rank, _ *Dispatcher, _ moe.Config, fwd *FwdState,
	dOut *tensor.Tensor, params *moe.ExpertParams, opts moe.PipelineOpts) moe.BackwardResult {
	return fwd.Backward(r, dOut, params, opts)
}

// gradAndDot writes dst = w * gRow and returns <gRow, oRow>.
func gradAndDot(dst, gRow, oRow []float32, w float32) (dot float32) {
	for j, v := range gRow {
		dst[j] = w * v
		dot += v * oRow[j]
	}
	return dot
}

// Backward reverses the forward stage by stage (see the package comment
// above): reverse CScatter and C1, the merge backward, reverse C2 under the
// pilot rows' gradient batch (chunked), the replica rows' batch, reverse
// S2 under the deferred dW, the replica-gradient reduction and reverse S1,
// and the scatter into dX.
func (st *State) Backward(r *simrt.Rank, dOut, dst *tensor.Tensor, opts moe.PipelineOpts, e moe.Experts) (*tensor.Tensor, []float32) {
	d, pft := st.d, st.pft
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp
	pool := r.Pool()
	nodeGroup := st.nodeGroup
	chunks := opts.Chunks()
	numeric := dOut != nil
	parts := moe.Table[simrt.Part](st.ct, 2*chunks*p)
	exchanges := moe.Table[simrt.Exchange](st.ct, 2*chunks)
	c1X, s1X := exchanges[:chunks], exchanges[chunks:]

	// --- Reverse CScatter + reverse C1 (inter-node), per chunk --------------
	// The forward scatter-added each returned merged row into its token's
	// output row unscaled, so the row gradient is a pure gather of dOut.
	// It crosses the collective as views (rows are destination-contiguous:
	// pilot send order is expert-major) of a buffer lent from the arena.
	var dRet *simrt.Loan
	if numeric {
		dRet = r.Lend(st.pilotsSent() * h)
		for i, ent := range st.pilotEntry {
			copy(dRet.Data[i*h:(i+1)*h], dOut.Row(pft.TokenIDs[ent]))
		}
	}
	for c := range c1X {
		send := parts[c*p : (c+1)*p]
		chunkRows := chunkParts(send, dRet, st.partStart, h, elem, chunks, c)
		r.Compute(StageBwdCScatter, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		c1X[c] = r.AlltoAllVChunk(d.EP, StageBwdC1A2A, send, dRet, chunks)
	}
	dRet.Done()

	// --- Per-chunk merge backward + combine-weight gradients ----------------
	// Pilot scaling and replica weighting differentiate; the weight
	// gradients are dot products against the saved expert outputs, and the
	// pilot rows' gradients land in dst. Each replica's gradient is a
	// single write, so chunk partitioning never reorders arithmetic.
	// The combine-weight gradients go home with reverse S1, one per pilot
	// row of a source's part and one per replica it announced in its
	// s1Meta, indexed by its position there.
	mergeOff, merges := st.mergesByChunk(chunks, numeric)
	var dMerged *tensor.Tensor
	var wg []bwdS1Meta
	var s2Back []simrt.Part
	// The replica-output gradients cross reverse C2 as views of one lent
	// buffer, every row written by its merge below.
	var c2Lent *simrt.Loan
	c2Send := moe.Table[simrt.Part](st.ct, len(st.s2SentCount))
	if numeric {
		dMerged = pool.Get(st.pilotRowsTotal, h)
		wg = st.newBwdS1Metas()
		s2Back = st.c2.Wait()
		c2Lent = r.Lend(st.s2SentTotal * h)
	}
	lo := 0
	for slot, n := range st.s2SentCount {
		c2Send[slot].Bytes = int64(n) * int64(h) * elem
		if numeric {
			c2Send[slot].Data = c2Lent.Data[lo*h : (lo+n)*h]
		}
		lo += n
	}
	for c := range c1X {
		recv := c1X[c].Wait()
		chunkRows := 0
		for src, m := range st.recvMetas {
			clo, chi := simrt.ChunkRange(st.partLen(src), chunks, c)
			chunkRows += chi - clo
			if !numeric || chi == clo {
				continue
			}
			off := st.pilotPartOff[src]
			copy(dMerged.Data[(off+clo)*h:(off+chi)*h], recv[src].Data)
			for pos := clo; pos < chi; pos++ {
				abs := off + pos
				wg[src].pilotWG[pos] = gradAndDot(dst.Row(st.pilotRow[abs]), dMerged.Row(abs), st.pilotOut.Row(abs), m.weights[pos])
			}
		}
		if numeric {
			c1X[c].Release()
			for _, mr := range merges[mergeOff[c]:mergeOff[c+1]] {
				slot, pos := mr.slot, mr.pos
				sRec := st.s2SentByMember[slot][pos]
				wg[sRec.src].replicaWG[sRec.ri] = gradAndDot(c2Send[slot].Data[pos*h:(pos+1)*h], dMerged.Row(int(sRec.pilotAbs)),
					s2Back[slot].Data[pos*h:(pos+1)*h], sRec.weight)
			}
		}
		// Two passes over every merged row and replica row: the gradient
		// scaling and the weight-gradient dot.
		r.Compute(StageBwdCMerge, comp.MemBoundN(perfmodel.ClassTriton, 2,
			2*int64(chunkRows+mergeOff[c+1]-mergeOff[c])*int64(h)*elem))
	}
	pool.Put(dMerged)
	if numeric {
		st.c2.Release() // the dots above were the replica outputs' last read
	}

	// --- Reverse C2 (intra-node): replica-output gradients to expert ranks --
	// Chunked, it flies under the pilot rows' dX chain: per-le pilot blocks
	// are contiguous in the State layout and the chain is row-independent,
	// so computing them ahead of the replica rows changes no bit.
	c2X := r.AlltoAllVChunk(nodeGroup, StageBwdC2A2A, c2Send, c2Lent, chunks)
	c2Lent.Done()
	last := moe.Batch{Rows: st.RowsPerLE, N: st.RowsPerLE, At: st.rowsOff[:d.EPR]}
	if chunks > 1 {
		e.Backward(moe.Batch{Rows: st.PilotRowsPerLE, N: st.PilotRowsPerLE, At: st.rowsOff[:d.EPR]})
		last = moe.Batch{Rows: st.ReplicaRowsPerLE, N: st.ReplicaRowsPerLE, At: st.replicaOff}
	}
	c2Recv := c2X.Wait()
	if numeric {
		st.toLayout(dst, nil, c2Recv)
		c2X.Release()
	}
	dIn := e.Backward(last)

	// --- Reverse S2 (intra-node): replica-input gradients to pilot holders --
	// The pilot rows' input gradients stay for reverse S1, which sends
	// them as per-part views of a buffer lent from the arena.
	var dPilotIn *simrt.Loan
	var dPilots []float32
	if numeric {
		dPilotIn = r.Lend(st.pilotRowsTotal * h)
		dPilots = dPilotIn.Data
	}
	s2Send, s2Lent := st.fromLayout(r, dIn, dPilots)
	s2X := r.AlltoAllVChunk(nodeGroup, StageBwdS2A2A, s2Send, s2Lent, chunks)
	s2Lent.Done()
	e.DW() // hides the in-flight reverse S2

	// --- Replica-gradient reduction onto pilot rows -------------------------
	s2Grad := s2X.Wait()
	r.Compute(StageBwdS2Red, comp.MemBound(perfmodel.ClassTriton,
		2*int64(st.pilotRowsTotal+mergeOff[chunks])*int64(h)*elem))
	if numeric {
		for slot, sent := range st.s2SentByMember {
			for pos, sRec := range sent {
				dst := dPilots[int(sRec.pilotAbs)*h : (int(sRec.pilotAbs)+1)*h]
				for j, v := range s2Grad[slot].Data[pos*h : (pos+1)*h] {
					dst[j] += v
				}
			}
		}
		s2X.Release()
	}

	// --- Reverse S1 (inter-node): pilot gradients + weight grads home -------
	// The combine-weight gradients ride chunk 0's metadata, charged 4 bytes
	// each like the forward s1Meta's weights.
	for c := range s1X {
		send := parts[(chunks+c)*p : (chunks+c+1)*p]
		chunkParts(send, dPilotIn, st.pilotPartOff, h, elem, chunks, c)
		if c == 0 {
			for src := range send {
				send[src].Bytes += int64(st.partLen(src)+st.recvMetas[src].nReplicas()) * 4
				if numeric {
					send[src].Meta = &wg[src]
				}
			}
		}
		s1X[c] = r.AlltoAllVChunk(d.EP, StageBwdS1A2A, send, dPilotIn, chunks)
	}
	dPilotIn.Done()
	if opts.OnDWReady != nil {
		// No blocking collective remains (one chunk: reverse S1 has
		// retired; chunked: its chunks are in flight).
		opts.OnDWReady()
	}

	// --- Drain reverse S1, then scatter into dX in pilot send order ---------
	ret, back := drainReturn(pool, s1X, st.partStart, h, numeric)
	r.Compute(StageBwdS1Scat, comp.MemBound(perfmodel.ClassTriton, 2*int64(st.pilotsSent())*int64(h)*elem))
	if !numeric {
		st.release() // the call's closing drain was reverse S1's
		return nil, nil
	}
	dx := pool.Get(st.s, h)
	st.scatterReturn(dx, ret)
	// The saved expert outputs are consumed: back to the arena for the next
	// layer's pass, with the reassembled return.
	pool.PutAll(ret, st.pilotOut)
	st.pilotOut, st.c2 = nil, simrt.Exchange{}
	dWeights := st.combineWeightGrads(back)
	st.release()
	return dx, dWeights
}

// newBwdS1Metas allocates the combine-weight gradients every source gets
// back with reverse S1's metadata: one per pilot row of its part and one
// per replica it announced in its s1Meta. The pilot gradients, absolute-
// indexed, and then every source's replica gradients share one backing, so
// the count of allocations does not depend on the EP size.
func (st *State) newBwdS1Metas() []bwdS1Meta {
	n := st.pilotRowsTotal
	for _, m := range st.recvMetas {
		n += len(m.replicas)
	}
	flat := make([]float32, n)
	wg := make([]bwdS1Meta, len(st.recvMetas))
	off := st.pilotRowsTotal
	for src, m := range st.recvMetas {
		wg[src] = bwdS1Meta{pilotWG: flat[st.pilotPartOff[src]:st.pilotPartOff[src+1]], replicaWG: flat[off : off+len(m.replicas)]}
		off += len(m.replicas)
	}
	return wg
}

// combineWeightGrads places the combine-weight gradients reverse S1
// returned (back[dst].Meta, one per EP member) at their PFT entries.
func (st *State) combineWeightGrads(back []simrt.Part) []float32 {
	dWeights := make([]float32, st.pft.B())
	for dst, part := range back {
		for pos, ent := range st.pilotEntry[st.partStart[dst]:st.partStart[dst+1]] {
			dWeights[ent] = part.Meta.(*bwdS1Meta).pilotWG[pos]
		}
	}
	for dst := 0; dst < len(back) && len(st.replicaEntry) > 0; dst++ {
		for ri, ent := range st.replicaEntry[dst] {
			dWeights[ent] = back[dst].Meta.(*bwdS1Meta).replicaWG[ri]
		}
	}
	return dWeights
}
