package rbd

import (
	"fmt"

	"xmoe/internal/moe"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Forward runs a complete X-MoE MoE layer with RBD transport: the one MoE
// layer body (moe.Forward) with the hierarchical redundancy-bypassing
// stages as its exchange instead of the flat uneven all-to-all. With
// opts.SaveForBackward the result carries the state Backward needs — the
// dispatch geometry always, plus the expert-FFN intermediates in numeric
// mode.
//
// opts.OverlapChunks changes the schedule and nothing else. With chunks, S1
// and C1 split into that many exchanges whose instantiation and merge
// passes hide each other's transfers, and the intra-node S2 and C2 fly
// under the work that does not need them: the pilot rows' reconstruction
// and expert GEMMs (the body's first batch), and the pilot scaling. With
// one chunk every exchange is blocking, the experts run one batch, and
// each of those passes is charged once. The numbers are the same either
// way: the expert FFN is row-independent, so it runs once over the whole
// input after Stage 2 lands whichever rows the schedule priced first, and
// the merge keeps its per-row order (see combine) — the output is
// bit-identical for any chunk count.
func Forward(r *simrt.Rank, d *Dispatcher, cfg moe.Config, s int, x *tensor.Tensor,
	routing moe.Routing, params *moe.ExpertParams, pilotRNG *tensor.RNG, opts moe.PipelineOpts) moe.LayerResult {
	if err := CheckOpts(opts); err != nil {
		panic(err)
	}
	return moe.Forward(r, d.newState(pilotRNG, opts), cfg, s, x, routing, params, opts)
}

// CheckOpts validates a PipelineOpts combination against what the RBD
// transport supports, beyond the generic PipelineOpts.Check. It returns a
// typed *moe.OptionError so callers (transport.Kind.Check, and through it
// DistConfig.Check and the CLIs) can reject the configuration up front
// instead of silently falling back to the flat transport.
func CheckOpts(opts moe.PipelineOpts) error {
	if err := opts.Check(); err != nil {
		return err
	}
	if opts.CombineBytes != 0 {
		return &moe.OptionError{Opt: "CombineBytes",
			Detail: fmt.Sprintf("rbd: the hierarchical combine has no element-size override (got %d); CombineBytes models Tutel's fp32 combine on the padded pipeline only", opts.CombineBytes)}
	}
	return nil
}

// Layout reports that RBD moves the PFT, not the padded layout, and picks
// its pilots per row in either mode.
func (st *State) Layout() (padded, rows bool) { return false, true }

// Forward runs Stages 0-2 and hands the expert rows to experts: chunked,
// the pilot rows while Stage 2 is in flight (they are here a whole exchange
// before the replicas) and then the replica rows, with the input complete;
// with one chunk, all rows at once. The FFN runs once, over the whole
// layout, with the last batch. The combine follows, and the staging
// buffers are released.
func (st *State) Forward(r *simrt.Rank, s int, pft *moe.PFT, rows *tensor.Tensor, opts moe.PipelineOpts, e moe.Experts) *tensor.Tensor {
	st.s, st.opts = s, opts
	var underS2 moe.Experts
	if opts.Chunks() > 1 {
		underS2 = e
	}
	b := moe.Batch{In: st.dispatch(r, pft, rows, underS2), Rows: st.RowsPerLE, Full: st.RowsPerLE}
	if underS2 != nil {
		b.Rows = st.ReplicaRowsPerLE
	}
	expertOut := e.Forward(b)
	out := st.combine(r, expertOut)
	r.Pool().Put(expertOut)
	mem := &r.Dev().Mem
	rowBytes := int64(st.d.Cfg.HModel) * int64(st.d.Cfg.BytesPerElem)
	bExp := st.rowsOff[st.d.EPR]
	mem.Free("rbd_pilot_send", int64(len(st.pilotEntry))*rowBytes)
	mem.Free("rbd_pilot_recv", int64(st.pilotRowsTotal)*rowBytes)
	mem.Free("rbd_s2_send", int64(st.s2SentTotal)*rowBytes)
	mem.Free("rbd_s2_recv", int64(bExp-st.pilotRowsTotal)*rowBytes)
	mem.Free("rbd_expert_in", int64(bExp)*rowBytes)
	mem.Free("rbd_merged", int64(st.pilotRowsTotal)*rowBytes)
	return out
}

// dispatch runs Stages 0-2 and reconstructs the expert input in the State
// layout (numeric; nil otherwise). underS2, when set (chunked), runs the
// pilot rows' expert batch while the Stage-2 exchange is in flight, after
// their share of the reconstruction, which hides behind it too.
func (st *State) dispatch(r *simrt.Rank, pft *moe.PFT, dispIn *tensor.Tensor, underS2 moe.Experts) *tensor.Tensor {
	d := st.d
	h := d.Cfg.HModel
	rowBytes := int64(h) * int64(d.Cfg.BytesPerElem)
	mem := &r.Dev().Mem
	// reconstruct charges the expert-input reconstruction pass over n rows.
	reconstruct := func(n int) {
		r.Compute(StageReconstruct, r.C.Comp.MemBound(perfmodel.ClassTriton, 2*int64(n)*rowBytes))
	}

	st.dispatchPilots(r, pft, dispIn)
	s2Send, s2Lent := d.stageReplicas(r, st)
	s2 := r.AlltoAllVChunk(st.nodeGroup, StageS2A2A, s2Send, s2Lent, st.opts.Chunks())
	s2Lent.Done()
	if underS2 != nil {
		reconstruct(st.pilotRowsTotal)
		underS2.Forward(moe.Batch{Rows: st.PilotRowsPerLE})
	}
	s2Recv := s2.Wait()

	// Every received pilot is for one of my experts; the replicas Stage 2
	// delivered join them, grouped per local expert. The segmentations, the
	// block offsets and (numeric) the row map's cursors share one backing.
	ints := make([]int, 6*d.EPR+1)
	st.ReplicaRowsPerLE, st.RowsPerLE = ints[:d.EPR:d.EPR], ints[d.EPR:2*d.EPR:2*d.EPR]
	st.replicaOff, st.rowsOff = ints[2*d.EPR:3*d.EPR:3*d.EPR], ints[3*d.EPR:4*d.EPR+1:4*d.EPR+1]
	next := ints[4*d.EPR+1:]
	st.s2RecvCount = make([]int, len(s2Recv))
	for src, part := range s2Recv {
		for le, n := range part.Meta.(s2Meta).perLE {
			st.ReplicaRowsPerLE[le] += n
			st.s2RecvCount[src] += n
		}
	}
	for le := range st.RowsPerLE {
		st.RowsPerLE[le] = st.PilotRowsPerLE[le] + st.ReplicaRowsPerLE[le]
		st.replicaOff[le] = st.rowsOff[le] + st.PilotRowsPerLE[le]
		st.rowsOff[le+1] = st.rowsOff[le] + st.RowsPerLE[le]
	}
	totalRows := st.rowsOff[d.EPR]
	mem.Alloc("rbd_s2_recv", int64(totalRows-st.pilotRowsTotal)*rowBytes)
	mem.Alloc("rbd_expert_in", int64(totalRows)*rowBytes)
	if underS2 != nil {
		reconstruct(totalRows - st.pilotRowsTotal) // the pilot rows' share went under S2
	} else {
		reconstruct(totalRows)
	}
	if !st.numeric {
		return nil
	}

	// The row map: next[le] walks local expert le's segment through its
	// pilots (sources ascending; a source's part is expert-sorted, so the
	// absolute pilot rows walk it once) and then its replicas.
	copy(next, st.rowsOff)
	rowOf := make([]int, totalRows)
	st.pilotRow, rowOf = rowOf[:st.pilotRowsTotal], rowOf[st.pilotRowsTotal:]
	abs := 0
	for _, m := range st.recvMetas {
		for le, c := range m.counts {
			for ; c > 0; c-- {
				st.pilotRow[abs] = next[le]
				next[le]++
				abs++
			}
		}
	}
	me := d.EP.IndexOf(r.ID)
	st.replicaRow = make([][]int, len(s2Recv))
	for src, part := range s2Recv {
		st.replicaRow[src], rowOf = rowOf[:st.s2RecvCount[src]], rowOf[st.s2RecvCount[src]:]
		for pos, rm := range part.Meta.(s2Meta).replicas {
			le := int(rm.expert) - me*d.EPR
			st.replicaRow[src][pos] = next[le]
			next[le]++
		}
	}
	expertIn := r.Pool().Get(totalRows, h)
	st.toLayout(expertIn, st.pilotRows, s2Recv)
	s2.Release()
	// pilotRows is fully consumed (stage-2 staging and the rows just
	// copied above); return it to the rank arena.
	r.Pool().Put(st.pilotRows)
	st.pilotRows = nil
	return expertIn
}

// combine reverses RBD for rank r: replica expert-outputs return to the
// pilot's rank intra-node (C2), are weight-scaled and merged into the pilot
// rows, and the inter-node return (C1, in opts.Chunks() chunks) brings the
// merged partial sums to the source rank, which accumulates them into the
// [s, H] layer output. expertOut is row-aligned with dispatch's expert
// input.
//
// Every pilot row is scaled first and then receives its replica
// accumulations in (slot, pos) order, whatever the chunk count: chunking
// only buckets the accumulations by the C1 chunk their pilot row returns
// in, so the output does not depend on it.
func (st *State) combine(r *simrt.Rank, expertOut *tensor.Tensor) *tensor.Tensor {
	h := st.d.Cfg.HModel
	elem := int64(st.d.Cfg.BytesPerElem)
	rowBytes := int64(h) * elem
	p := st.d.EP.Size()
	chunks := st.opts.Chunks()
	numeric := st.numeric
	mem := &r.Dev().Mem
	// merge charges the weight-scaled merge pass over n rows.
	merge := func(n int) {
		r.Compute(StageCMerge, r.C.Comp.MemBound(perfmodel.ClassTriton, 2*int64(n)*rowBytes))
	}

	// --- Combine stage 2 (intra-node): return replica outputs --------------
	// The expert outputs split back into the held pilots' (absolute-indexed)
	// and the replicas', which return as the C2 parts (host-side staging,
	// uncharged). Every held pilot row is scaled by its combine weight
	// first; replica accumulations follow in (slot, pos) order.
	var pilotOut *tensor.Tensor
	var pilots []float32
	if numeric {
		pilotOut = r.Pool().Get(st.pilotRowsTotal, h)
		pilots = pilotOut.Data
	}
	c2Send, c2Lent := st.fromLayout(r, expertOut, pilots)
	c2 := r.AlltoAllVChunk(st.nodeGroup, StageC2A2A, c2Send, c2Lent, chunks)
	c2Lent.Done()
	// merged holds the pilot rows' partial sums, which C1 sends as views.
	var merged *simrt.Loan
	mem.Alloc("rbd_merged", int64(st.pilotRowsTotal)*rowBytes)
	if numeric {
		merged = r.Lend(st.pilotRowsTotal * h)
		for src, m := range st.recvMetas {
			for pos, w := range m.weights {
				abs := st.pilotPartOff[src] + pos
				dst := merged.Data[abs*h : (abs+1)*h]
				for j, v := range pilotOut.Row(abs) {
					dst[j] = w * v
				}
			}
		}
	}
	if chunks > 1 {
		// Chunked, the pilot scaling — which reads no replica row — is its
		// own pass, hidden behind the in-flight exchange.
		merge(st.pilotRowsTotal)
	}
	s2Back := c2.Wait()
	keep := numeric && st.opts.SaveForBackward
	if keep {
		// The backward dots the merged-row gradients against the
		// pre-scaling outputs and the replica return payloads, which it
		// reads in place and releases after.
		st.pilotOut, st.c2 = pilotOut, c2
	} else {
		r.Pool().Put(pilotOut)
	}

	// --- Merge replicas into pilots + inter-node pilot return --------------
	// Chunk c's accumulations are charged before its return leaves, so
	// chunk c+1's hide behind chunk c's transfer.
	mergeOff, merges := st.mergesByChunk(chunks, numeric)
	c1 := make([]simrt.Exchange, chunks)
	sendFlat := make([]simrt.Part, chunks*p)
	for c := range c1 {
		if numeric {
			for _, mr := range merges[mergeOff[c]:mergeOff[c+1]] {
				sRec := st.s2SentByMember[mr.slot][mr.pos]
				dst := merged.Data[int(sRec.pilotAbs)*h : (int(sRec.pilotAbs)+1)*h]
				for j, v := range s2Back[mr.slot].Data[mr.pos*h : (mr.pos+1)*h] {
					dst[j] += sRec.weight * v
				}
			}
		}
		if chunks > 1 {
			merge(mergeOff[c+1] - mergeOff[c])
		} else {
			// One chunk: scaling and accumulation are one pass.
			merge(mergeOff[1] + st.pilotRowsTotal)
		}
		sendBack := sendFlat[c*p : (c+1)*p]
		chunkParts(sendBack, merged, st.pilotPartOff, h, elem, chunks, c)
		c1[c] = r.AlltoAllVChunk(st.d.EP, StageC1A2A, sendBack, merged, chunks)
	}
	merged.Done()
	if !keep {
		c2.Release() // the merges were the replica returns' last read
	}

	// --- Source side: the returned merged rows into the [s, H] output ------
	ret, _ := drainReturn(r.Pool(), c1, st.partStart, h, numeric)
	r.Compute(StageCScatter, r.C.Comp.MemBound(perfmodel.ClassTriton, 2*int64(len(st.pilotEntry))*rowBytes))
	mem.Alloc("output", int64(st.s)*rowBytes)
	if !numeric {
		return nil
	}
	out := r.Pool().Get(st.s, h)
	st.scatterReturn(out, ret)
	r.Pool().Put(ret)
	return out
}
