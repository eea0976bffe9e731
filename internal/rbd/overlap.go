package rbd

// Expert-GEMM comm/compute overlap for the RBD transport. The original
// chunked mode (PR 2) only overlapped the inter-node S1/C1 exchanges with
// the small instantiation/merge passes; the expert GEMMs — the bulk of
// the layer's compute — ran strictly between the exchanges, which is why
// RBD's overlap win stalled at ~1.02x. This path restructures the layer
// around the observation that the expert input splits into two
// independently computable row groups:
//
//   - Pilot rows arrive with Stage 1 and are local before Stage 2 even
//     starts, so their W1/GeLU/W2 GEMMs run while the Stage-2 replica
//     exchange is in flight (dispatch side).
//   - On the combine side the replica outputs are exactly the C2 payload:
//     C2 is issued non-blocking as soon as the replica GEMMs finish, and
//     the pilot-scaling half of the merge runs while it flies; the
//     remaining per-chunk replica accumulations then overlap the chunked
//     C1 pilot return as before.
//
// Numeric output stays bit-identical to the blocking path: the expert FFN
// is row-independent (splitting pilot/replica rows into separate GEMM
// launches never changes a row's arithmetic), every output row is
// scattered to the exact position the blocking path uses, and the merge
// keeps the blocking order per pilot row — scaling first, then that row's
// replica accumulations in (slot, pos) order.

import (
	"fmt"

	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// IssueS2 stages the replica rows and issues the Stage-2 intra-node
// exchange non-blocking, recording the handle in the state. Must be
// called after DispatchPilots; PilotInput and the pilot GEMMs then run
// while the exchange is in flight, and FinishS2 collects it.
func (d *Dispatcher) IssueS2(r *simrt.Rank, st *State, opts moe.PipelineOpts) {
	s2Send := d.stageReplicas(r, st, opts)
	st.s2Handle = r.AlltoAllVAsync(st.nodeGroup, StageS2A2A, s2Send)
}

// PilotInput reconstructs the pilot share of the expert input — rows
// grouped per local expert, each le's rows in (source, position) order,
// exactly their order within the blocking path's interleaved buffer —
// and records the absolute pilot-buffer row of each, which the combine
// needs to scatter the pilot outputs back. Must be called after IssueS2
// (the staging reads the pilot payload this call recycles).
func (d *Dispatcher) PilotInput(r *simrt.Rank, st *State, opts moe.PipelineOpts) *tensor.Tensor {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp

	nPilot := 0
	for _, c := range st.PilotRowsPerLE {
		nPilot += c
	}
	st.pilotAbs = make([]int, 0, nPilot)
	// posOfLE[src] walks src's part positions as le ascends.
	posOfLE := make([]int, p)
	for le := 0; le < d.EPR; le++ {
		for src := 0; src < p; src++ {
			c := st.recvPilotCounts[src][le]
			for i := 0; i < c; i++ {
				st.pilotAbs = append(st.pilotAbs, st.pilotPartOff[src]+posOfLE[src]+i)
			}
			posOfLE[src] += c
		}
	}
	r.Compute(StageReconstruct, comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilot)*int64(h)*elem))

	var pilotIn *tensor.Tensor
	if opts.Numeric {
		pilotIn = r.Pool().Get(nPilot, h)
		for i, abs := range st.pilotAbs {
			copy(pilotIn.Row(i), st.pilotRows.Row(abs))
		}
		// pilotRows is fully consumed: replica staging (IssueS2) and the
		// pilot rows just copied.
		r.Pool().Put(st.pilotRows)
		st.pilotRows = nil
	}
	return pilotIn
}

// FinishS2 waits for the in-flight Stage-2 exchange and reconstructs the
// replica share of the expert input, grouped per local expert in the
// blocking path's (part, position) order. It also completes RowsPerLE for
// reporting.
func (d *Dispatcher) FinishS2(r *simrt.Rank, st *State, opts moe.PipelineOpts) *tensor.Tensor {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	me := d.EP.IndexOf(r.ID)
	comp := r.C.Comp
	mem := &r.Dev().Mem

	s2Recv := st.s2Handle.Wait()
	st.s2Handle = nil
	nodeSize := st.nodeGroup.Size()
	st.s2RecvCount = make([]int, nodeSize)
	st.s2RecvMeta = make([][]replicaMeta, nodeSize)
	nReplicaRows := 0
	for src, part := range s2Recv {
		m := part.Meta.([]replicaMeta)
		st.s2RecvMeta[src] = m
		st.s2RecvCount[src] = len(m)
		nReplicaRows += len(m)
	}
	mem.Alloc("rbd_s2_recv", int64(nReplicaRows)*int64(h)*elem)

	st.ReplicaRowsPerLE = make([]int, d.EPR)
	for src := range s2Recv {
		for _, rm := range st.s2RecvMeta[src] {
			le := rm.expert - me*d.EPR
			if le < 0 || le >= d.EPR {
				panic(fmt.Sprintf("rbd: stage-2 replica for expert %d landed on wrong rank", rm.expert))
			}
			st.ReplicaRowsPerLE[le]++
		}
	}
	st.RowsPerLE = make([]int, d.EPR)
	totalRows := 0
	for le := 0; le < d.EPR; le++ {
		st.RowsPerLE[le] = st.PilotRowsPerLE[le] + st.ReplicaRowsPerLE[le]
		totalRows += st.RowsPerLE[le]
	}
	mem.Alloc("rbd_expert_in", int64(totalRows)*int64(h)*elem)

	// Replica rows grouped per le, (part, pos) ascending within each —
	// the blocking buffer's replica order.
	st.replicaRef = make([]rowRef, 0, nReplicaRows)
	refOff := make([]int, d.EPR+1)
	for le := 0; le < d.EPR; le++ {
		refOff[le+1] = refOff[le] + st.ReplicaRowsPerLE[le]
	}
	st.replicaRef = st.replicaRef[:nReplicaRows]
	cursor := make([]int, d.EPR)
	for src := range s2Recv {
		for pos, rm := range st.s2RecvMeta[src] {
			le := rm.expert - me*d.EPR
			st.replicaRef[refOff[le]+cursor[le]] = rowRef{part: src, pos: pos}
			cursor[le]++
		}
	}
	r.Compute(StageReconstruct, comp.MemBound(perfmodel.ClassTriton, 2*int64(nReplicaRows)*int64(h)*elem))

	var replicaIn *tensor.Tensor
	if opts.Numeric {
		replicaIn = r.Pool().Get(nReplicaRows, h)
		for i, ref := range st.replicaRef {
			copy(replicaIn.Row(i), s2Recv[ref.part].Data[ref.pos*h:(ref.pos+1)*h])
		}
	}
	return replicaIn
}

// CombineOverlap reverses RBD with the combine-side overlap: the replica
// outputs (the C2 payload) leave non-blocking immediately, the pilot
// scaling runs while the exchange flies, and the per-chunk replica
// accumulations overlap the chunked C1 pilot return. pilotOut and
// replicaOut are the le-major expert outputs produced from PilotInput /
// FinishS2 buffers.
func (d *Dispatcher) CombineOverlap(r *simrt.Rank, st *State, pilotOut, replicaOut *tensor.Tensor, s int, opts moe.PipelineOpts) *tensor.Tensor {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp
	mem := &r.Dev().Mem
	chunks := opts.Chunks()
	nodeGroup := st.nodeGroup

	// Scatter the le-major outputs back to absolute pilot rows and
	// Stage-2 part buffers (the blocking path's expertOut split, same
	// uncharged staging pass).
	var pilotAbsOut *tensor.Tensor
	replicaParts := make([][]float32, nodeGroup.Size())
	if opts.Numeric {
		pilotAbsOut = r.Pool().Get(st.pilotRowsTotal, h)
		for i, abs := range st.pilotAbs {
			copy(pilotAbsOut.Row(abs), pilotOut.Row(i))
		}
		for slot := range replicaParts {
			replicaParts[slot] = make([]float32, st.s2RecvCount[slot]*h)
		}
		for i, ref := range st.replicaRef {
			copy(replicaParts[ref.part][ref.pos*h:(ref.pos+1)*h], replicaOut.Row(i))
		}
		r.Pool().PutAll(pilotOut, replicaOut)
	}

	// --- Combine stage 2 (intra-node), in flight under the pilot scaling ---
	// Each pilot row's scaling precedes its replica accumulations in
	// Combine too, so hoisting the whole scaling pass preserves the
	// per-row arithmetic order.
	c2 := r.AlltoAllVAsync(nodeGroup, StageC2A2A, st.c2Parts(replicaParts, h, elem))
	var merged *tensor.Tensor
	mem.Alloc("rbd_merged", int64(st.pilotRowsTotal)*int64(h)*elem)
	if opts.Numeric {
		merged = st.scalePilots(pilotAbsOut, h)
	}
	r.Compute(StageCMerge, comp.MemBound(perfmodel.ClassTriton, 2*int64(st.pilotRowsTotal)*int64(h)*elem))
	s2Back := c2.Wait()
	if opts.Numeric {
		st.keepOutputs(r, pilotAbsOut, s2Back)
	}

	// --- Per-chunk replica accumulation + chunked C1 pilot return ----------
	mergeOff, merges := st.mergesByChunk(chunks, opts.Numeric)
	c1 := make([]simrt.Exchange, chunks)
	sendFlat := make([]simrt.Part, chunks*p)
	for c := range c1 {
		if opts.Numeric {
			for _, mr := range merges[mergeOff[c]:mergeOff[c+1]] {
				sRec := st.s2SentByMember[mr.slot][mr.pos]
				src := s2Back[mr.slot].Data[mr.pos*h : (mr.pos+1)*h]
				dst := merged.Row(sRec.pilotAbs)
				for j, v := range src {
					dst[j] += sRec.weight * v
				}
			}
		}
		r.Compute(StageCMerge, comp.MemBound(perfmodel.ClassTriton,
			2*int64(mergeOff[c+1]-mergeOff[c])*int64(h)*elem))

		sendBack := sendFlat[c*p : (c+1)*p]
		st.returnParts(sendBack, merged, h, elem, chunks, c)
		c1[c] = r.AlltoAllVChunk(d.EP, StageC1A2A, sendBack, chunks)
	}
	return d.finishCombine(r, st, c1, s, opts)
}

// forwardOverlap is the overlapped RBD layer: chunked S1 exchange, pilot
// GEMMs hiding the async S2, replica GEMMs, C2 leaving non-blocking under
// the pilot-scaling merge, and the chunked C1 return under the replica
// accumulations.
func forwardOverlap(r *simrt.Rank, d *Dispatcher, cfg moe.Config, s int, pft *moe.PFT,
	dispIn *tensor.Tensor, params *moe.ExpertParams, pilotRNG *tensor.RNG, opts moe.PipelineOpts) (*tensor.Tensor, int, *State) {

	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp
	pool := r.Pool()

	st := d.DispatchPilots(r, pft, dispIn, pilotRNG, opts)
	d.IssueS2(r, st, opts)
	pilotIn := d.PilotInput(r, st, opts)

	// Pilot-row expert GEMMs, overlapping the in-flight S2 exchange.
	nPilot := 0
	for _, c := range st.PilotRowsPerLE {
		nPilot += c
	}
	r.Compute(moe.StageExperts, comp.SequentialGEMM(st.PilotRowsPerLE, h, f)+
		comp.SequentialGEMM(st.PilotRowsPerLE, f, h)+
		comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilot)*int64(f)*elem))
	var pilotOut, pilotPre, pilotAct *tensor.Tensor
	if opts.Numeric {
		interm := pool.Get(nPilot, f)
		kernels.SequentialGEMMInto(interm, pilotIn, st.PilotRowsPerLE, params.W1)
		act := interm
		if st.save != nil {
			act = pool.Get(nPilot, f)
			act.Copy(interm)
		}
		tensor.GeLU(act)
		pilotOut = pool.Get(nPilot, h)
		kernels.SequentialGEMMInto(pilotOut, act, st.PilotRowsPerLE, params.W2)
		if st.save != nil {
			pilotPre, pilotAct = interm, act
		} else {
			pool.PutAll(pilotIn, interm)
		}
	}

	replicaIn := d.FinishS2(r, st, opts)

	// Replica-row expert GEMMs.
	nReplica := 0
	for _, c := range st.ReplicaRowsPerLE {
		nReplica += c
	}
	r.Compute(moe.StageExperts, comp.SequentialGEMM(st.ReplicaRowsPerLE, h, f)+
		comp.SequentialGEMM(st.ReplicaRowsPerLE, f, h)+
		comp.MemBound(perfmodel.ClassTriton, 2*int64(nReplica)*int64(f)*elem))
	var replicaOut, replicaPre, replicaAct *tensor.Tensor
	if opts.Numeric {
		interm := pool.Get(nReplica, f)
		kernels.SequentialGEMMInto(interm, replicaIn, st.ReplicaRowsPerLE, params.W1)
		act := interm
		if st.save != nil {
			act = pool.Get(nReplica, f)
			act.Copy(interm)
		}
		tensor.GeLU(act)
		replicaOut = pool.Get(nReplica, h)
		kernels.SequentialGEMMInto(replicaOut, act, st.ReplicaRowsPerLE, params.W2)
		if st.save != nil {
			replicaPre, replicaAct = interm, act
		} else {
			pool.PutAll(replicaIn, interm)
		}
	}

	bExp := nPilot + nReplica
	mem.Alloc("A0_interm", int64(bExp)*int64(f)*elem)
	mem.Alloc("A1_interm", int64(bExp)*int64(f)*elem)

	if st.save != nil && opts.Numeric {
		// Scatter the split pilot/replica intermediates into the blocking
		// full layout (per local expert: pilot rows, then replica rows) so
		// Backward is chunk-count-agnostic. Host-side staging, uncharged —
		// mirrors the forward's own uncharged expertOut split in Combine.
		expertIn := pool.Get(bExp, h)
		hidPre := pool.Get(bExp, f)
		hidAct := pool.Get(bExp, f)
		pOff, rOff, off := 0, 0, 0
		for le := 0; le < d.EPR; le++ {
			np, nr := st.PilotRowsPerLE[le], st.ReplicaRowsPerLE[le]
			copy(expertIn.Data[off*h:(off+np)*h], pilotIn.Data[pOff*h:(pOff+np)*h])
			copy(hidPre.Data[off*f:(off+np)*f], pilotPre.Data[pOff*f:(pOff+np)*f])
			copy(hidAct.Data[off*f:(off+np)*f], pilotAct.Data[pOff*f:(pOff+np)*f])
			off += np
			copy(expertIn.Data[off*h:(off+nr)*h], replicaIn.Data[rOff*h:(rOff+nr)*h])
			copy(hidPre.Data[off*f:(off+nr)*f], replicaPre.Data[rOff*f:(rOff+nr)*f])
			copy(hidAct.Data[off*f:(off+nr)*f], replicaAct.Data[rOff*f:(rOff+nr)*f])
			off += nr
			pOff += np
			rOff += nr
		}
		st.save.ExpertIn, st.save.HidPre, st.save.HidAct = expertIn, hidPre, hidAct
		pool.PutAll(pilotIn, pilotPre, pilotAct, replicaIn, replicaPre, replicaAct)
	}

	out := d.CombineOverlap(r, st, pilotOut, replicaOut, s, opts)
	return out, bExp, st
}
