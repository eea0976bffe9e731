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
//	FFN backward      - dX chain + dW over the forward's exact segments
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
	"fmt"

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

// FwdState is the saved forward state the RBD backward consumes: the
// dispatch geometry plus, in numeric mode, the expert-FFN intermediates in
// the State layout and the pre-scaling expert outputs the combine-weight
// gradients dot against. In symbolic mode the tensors are nil and only the
// geometry is populated. It does not record the forward's chunk count:
// nothing in it depends on one, so any Backward chunk count pairs with any
// Forward's.
type FwdState struct {
	S  int
	St *State
	// ExpertIn/HidPre/HidAct are [BExp, H/F/F] in the State layout.
	ExpertIn, HidPre, HidAct *tensor.Tensor
	// PilotOut is the [pilotRowsTotal, H] expert output of every pilot
	// row held by this rank, absolute-indexed.
	PilotOut *tensor.Tensor
	// S2Back[slot] is the replica expert-output payload returned through
	// C2 in the forward, aligned with State.s2SentByMember[slot].
	S2Back [][]float32
}

// bwdS1Meta carries the combine-weight gradients back to the source rank
// alongside the reverse-S1 pilot-gradient rows: one float per pilot row of
// the part and one per replica the source announced in its s1Meta.
type bwdS1Meta struct {
	pilotWG   []float32
	replicaWG []float32
}

// bwdS1MetaBytes is the wire charge for the part's weight-gradient
// metadata, mirroring the forward s1Meta convention (4 bytes per float).
func bwdS1MetaBytes(nPilot, nReplica int) int64 {
	return int64(nPilot+nReplica) * 4
}

// bwdGeom bundles the index maps the backward derives from the forward
// state. A symbolic pass moves no rows and gets the wire geometry only.
type bwdGeom struct {
	bExp    int
	rowsOff []int // State-layout offset per local expert
	// Numeric only: the row map inverted, and the pilot weights.
	fullOfPilot []int   // absolute pilot row -> State-layout row
	fullOfPart  [][]int // (s2 part, pos) -> State-layout row
	wByAbs      []float32
}

func (d *Dispatcher) backwardGeom(st *State, numeric bool) *bwdGeom {
	p := d.EP.Size()
	g := &bwdGeom{rowsOff: make([]int, d.EPR+1)}
	for le := 0; le < d.EPR; le++ {
		g.rowsOff[le+1] = g.rowsOff[le] + st.RowsPerLE[le]
	}
	g.bExp = g.rowsOff[d.EPR]
	if !numeric {
		return g
	}
	g.fullOfPilot = make([]int, st.pilotRowsTotal)
	g.fullOfPart = make([][]int, len(st.s2RecvCount))
	for part, n := range st.s2RecvCount {
		g.fullOfPart[part] = make([]int, n)
	}
	for row, ref := range st.rows {
		if ref.part == pilotPart {
			g.fullOfPilot[ref.pos] = row
		} else {
			g.fullOfPart[ref.part][ref.pos] = row
		}
	}
	g.wByAbs = make([]float32, st.pilotRowsTotal)
	for src := 0; src < p; src++ {
		copy(g.wByAbs[st.pilotPartOff[src]:], st.recvPilotW[src])
	}
	return g
}

// Backward runs the distributed backward pass of the RBD-transport MoE
// layer, reversing every forward stage over the same link classes (see
// the package comment above). Given the forward state saved by Forward
// with opts.SaveForBackward and the output gradient dOut [S, H], it
// returns dX, the per-local-expert weight gradients, and the per-PFT-entry
// combine-weight gradients. In symbolic mode (opts.Numeric false) the pass
// charges its modeled times and integer-exact wire volumes only.
//
// It is one body parameterised by opts.OverlapChunks (the model of
// moe/overlap.go): the reverse-C1 merged-gradient return is split by the
// forward C1 return's per-part ChunkRange so each chunk's merge backward
// hides the next transfer, the intra-node reverse C2/S2 exchanges fly
// under the pilot/replica dX GEMM chains and the dW GEMMs, which are
// deferred to the complete segments, and the reverse-S1 chunks drain into
// a staging buffer before one scatter pass in pilot send order. With one
// chunk every exchange is blocking and the expert backward is the fused
// dX + dW kernel, charged once between reverse C2 and reverse S2.
// Gradients are bit-identical for any chunk count.
//
// opts.OnDWReady, when set, fires exactly once, after dW completes and
// every reverse-S1 exchange is issued (one chunk: has retired).
func Backward(r *simrt.Rank, d *Dispatcher, cfg moe.Config, fwd *FwdState,
	dOut *tensor.Tensor, params *moe.ExpertParams, opts moe.PipelineOpts) moe.BackwardResult {

	if err := CheckOpts(opts); err != nil {
		panic(err.Error())
	}
	if fwd == nil || fwd.St == nil {
		panic("rbd: Backward requires the forward state saved by Forward with SaveForBackward")
	}
	if opts.Numeric && fwd.ExpertIn == nil {
		panic((&moe.OptionError{Opt: "Numeric", Detail: "rbd: numeric Backward, but the forward state was captured symbolically (SaveForBackward ran without Numeric)"}).Error())
	}

	st := fwd.St
	pft := st.pft
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp
	pool := r.Pool()
	nodeGroup := st.nodeGroup
	chunks := opts.Chunks()
	g := d.backwardGeom(st, opts.Numeric)
	nPilotSent := len(st.pilotEntry)
	parts := make([]simrt.Part, 2*chunks*p)
	exchanges := make([]simrt.Exchange, 2*chunks)
	c1X, s1X := exchanges[:chunks], exchanges[chunks:]

	// --- Reverse CScatter + reverse C1 (inter-node), per chunk --------------
	// The forward scatter-added each returned merged row into its token's
	// output row unscaled, so the row gradient is a pure gather of dOut.
	// It crosses the collective as views (rows are destination-contiguous:
	// pilot send order is expert-major), so it is allocated fresh.
	var dRet *tensor.Tensor
	if opts.Numeric {
		dRet = tensor.New(nPilotSent, h)
	}
	for c := range c1X {
		send := parts[c*p : (c+1)*p]
		chunkRows := 0
		for dst := 0; dst < p; dst++ {
			lo := st.partStart[dst]
			clo, chi := simrt.ChunkRange(st.partStart[dst+1]-lo, chunks, c)
			chunkRows += chi - clo
			part := simrt.Part{Bytes: int64(chi-clo) * int64(h) * elem}
			if opts.Numeric && chi > clo {
				for i := lo + clo; i < lo+chi; i++ {
					copy(dRet.Row(i), dOut.Row(pft.TokenIDs[st.pilotEntry[i]]))
				}
				part.Data = dRet.Data[(lo+clo)*h : (lo+chi)*h]
			}
			send[dst] = part
		}
		r.Compute(StageBwdCScatter, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		c1X[c] = r.AlltoAllVChunk(d.EP, StageBwdC1A2A, send, chunks)
	}

	// --- Per-chunk merge backward + combine-weight gradients ----------------
	// Pilot scaling and replica weighting differentiate; the weight
	// gradients are dot products against the saved expert outputs. Each
	// replica's gradient is a single write, so chunk partitioning never
	// reorders arithmetic.
	mergeOff, merges := st.mergesByChunk(chunks, opts.Numeric)
	// Expert-FFN gradients in the State layout.
	var dMerged *tensor.Tensor
	var grads moe.FFNGrads
	var wgAbs []float32
	var wgRepBySlot [][]float32
	dRepRet := make([][]float32, len(st.s2SentByMember))
	if opts.Numeric {
		dMerged = pool.Get(st.pilotRowsTotal, h)
		grads = moe.NewFFNGrads(pool, g.bExp, h, f)
		wgAbs = make([]float32, st.pilotRowsTotal)
		wgRepBySlot = make([][]float32, len(st.s2SentByMember))
		for slot, sent := range st.s2SentByMember {
			dRepRet[slot] = make([]float32, len(sent)*h) // crosses reverse C2
			wgRepBySlot[slot] = make([]float32, len(sent))
		}
	}
	// gradAndDot writes dst = w * gRow and returns <gRow, oRow>.
	gradAndDot := func(dst, gRow, oRow []float32, w float32) (dot float32) {
		for j, v := range gRow {
			dst[j] = w * v
			dot += v * oRow[j]
		}
		return dot
	}
	for c := range c1X {
		recv := c1X[c].Wait()
		chunkRows := 0
		for src := 0; src < p; src++ {
			clo, chi := simrt.ChunkRange(len(st.recvPilotW[src]), chunks, c)
			chunkRows += chi - clo
			if !opts.Numeric || chi == clo {
				continue
			}
			off := st.pilotPartOff[src]
			copy(dMerged.Data[(off+clo)*h:(off+chi)*h], recv[src].Data)
			for abs := off + clo; abs < off+chi; abs++ {
				wgAbs[abs] = gradAndDot(grads.DOut.Row(g.fullOfPilot[abs]), dMerged.Row(abs), fwd.PilotOut.Row(abs), g.wByAbs[abs])
			}
		}
		if opts.Numeric {
			for _, mr := range merges[mergeOff[c]:mergeOff[c+1]] {
				slot, pos := mr.slot, mr.pos
				sRec := st.s2SentByMember[slot][pos]
				wgRepBySlot[slot][pos] = gradAndDot(dRepRet[slot][pos*h:(pos+1)*h], dMerged.Row(int(sRec.pilotAbs)),
					fwd.S2Back[slot][pos*h:(pos+1)*h], sRec.weight)
			}
		}
		// Two passes over every merged row and replica row: the gradient
		// scaling and the weight-gradient dot.
		r.Compute(StageBwdCMerge, comp.MemBoundN(perfmodel.ClassTriton, 2,
			2*int64(chunkRows+mergeOff[c+1]-mergeOff[c])*int64(h)*elem))
	}
	pool.Put(dMerged)

	// --- Reverse C2 (intra-node): replica-output gradients to expert ranks --
	// Chunked, it flies under the pilot dX chain: per-le pilot blocks are
	// contiguous in the State layout and the chain is row-independent, so
	// computing them ahead of the replica rows changes no bit.
	c2Send := make([]simrt.Part, nodeGroup.Size())
	for slot := range c2Send {
		c2Send[slot] = simrt.Part{Data: dRepRet[slot], Bytes: int64(len(st.s2SentByMember[slot])) * int64(h) * elem}
	}
	c2X := r.AlltoAllVChunk(nodeGroup, StageBwdC2A2A, c2Send, chunks)
	if chunks > 1 {
		// The pilot rows' dX chain, hiding the in-flight reverse C2.
		r.Compute(moe.StageBwdExperts, ffnChainCost(comp, cfg, st.PilotRowsPerLE))
	}
	if opts.Numeric {
		for le, n := range st.PilotRowsPerLE {
			if n > 0 {
				grads.Run(fwd.HidPre, params, le, g.rowsOff[le], n)
			}
		}
	}
	c2Recv := c2X.Wait()
	if chunks == 1 {
		// One chunk: the fused kernel computes dX and dW of each expert
		// segment in one pass, between reverse C2 and reverse S2.
		r.Compute(moe.StageBwdExperts, comp.SequentialGEMM(st.RowsPerLE, h, f)*2+
			comp.SequentialGEMM(st.RowsPerLE, f, h)*2+
			comp.MemBound(perfmodel.ClassTriton, 2*int64(g.bExp)*int64(f)*elem))
	} else {
		// The replica rows' dX chain.
		r.Compute(moe.StageBwdExperts, ffnChainCost(comp, cfg, st.ReplicaRowsPerLE))
	}
	if opts.Numeric {
		for part, rows := range g.fullOfPart {
			for pos, row := range rows {
				copy(grads.DOut.Row(row), c2Recv[part].Data[pos*h:(pos+1)*h])
			}
		}
		for le, n := range st.ReplicaRowsPerLE {
			if n > 0 {
				grads.Run(fwd.HidPre, params, le, g.rowsOff[le]+st.PilotRowsPerLE[le], n)
			}
		}
	}

	// --- Reverse S2 (intra-node): replica-input gradients to pilot holders --
	s2Send := make([]simrt.Part, nodeGroup.Size())
	for src := range s2Send {
		n := st.s2RecvCount[src]
		part := simrt.Part{Bytes: int64(n) * int64(h) * elem}
		if opts.Numeric && n > 0 {
			buf := make([]float32, n*h)
			for pos := 0; pos < n; pos++ {
				copy(buf[pos*h:(pos+1)*h], grads.DIn.Row(g.fullOfPart[src][pos]))
			}
			part.Data = buf
		}
		s2Send[src] = part
	}
	s2X := r.AlltoAllVChunk(nodeGroup, StageBwdS2A2A, s2Send, chunks)
	if chunks > 1 {
		// Deferred dW GEMMs over the complete segments, hiding the
		// in-flight reverse S2; one chunk charged them in the fused kernel.
		r.Compute(moe.StageBwdExperts, comp.SequentialGEMM(st.RowsPerLE, h, f)+
			comp.SequentialGEMM(st.RowsPerLE, f, h))
	}
	var dW1, dW2 []*tensor.Tensor
	var dPilotIn *tensor.Tensor
	if opts.Numeric {
		// Crosses reverse S1 (sent as per-part views): allocate fresh.
		dPilotIn = tensor.New(st.pilotRowsTotal, h)
		for abs, row := range g.fullOfPilot {
			copy(dPilotIn.Row(abs), grads.DIn.Row(row))
		}
		dW1, dW2 = grads.DW(pool, fwd.ExpertIn, fwd.HidAct, params, st.RowsPerLE)
	}

	// --- Replica-gradient reduction onto pilot rows -------------------------
	s2Grad := s2X.Wait()
	nMerge := mergeOff[chunks]
	r.Compute(StageBwdS2Red, comp.MemBound(perfmodel.ClassTriton,
		2*int64(st.pilotRowsTotal+nMerge)*int64(h)*elem))
	if opts.Numeric {
		for slot, sent := range st.s2SentByMember {
			for pos, sRec := range sent {
				dst := dPilotIn.Row(int(sRec.pilotAbs))
				for j, v := range s2Grad[slot].Data[pos*h : (pos+1)*h] {
					dst[j] += v
				}
			}
		}
	}

	// --- Reverse S1 (inter-node): pilot gradients + weight grads home -------
	// The combine-weight gradients ride chunk 0's metadata; a replica's
	// routes to the source that announced it in its s1Meta, indexed by its
	// position there.
	var wgMeta []bwdS1Meta
	if opts.Numeric {
		wgMeta = make([]bwdS1Meta, p)
		for src := range wgMeta {
			off := st.pilotPartOff[src]
			wgMeta[src] = bwdS1Meta{
				pilotWG:   wgAbs[off : off+len(st.recvPilotW[src])],
				replicaWG: make([]float32, len(st.recvMetas[src].replicas)),
			}
		}
		for slot, sent := range st.s2SentByMember {
			for pos, sRec := range sent {
				wgMeta[sRec.src].replicaWG[sRec.ri] = wgRepBySlot[slot][pos]
			}
		}
	}
	for c := range s1X {
		send := parts[(chunks+c)*p : (chunks+c+1)*p]
		st.returnParts(send, dPilotIn, h, elem, chunks, c)
		if c == 0 {
			for src := range send {
				send[src].Bytes += bwdS1MetaBytes(len(st.recvPilotW[src]), len(st.recvMetas[src].replicas))
				if opts.Numeric {
					send[src].Meta = wgMeta[src]
				}
			}
		}
		s1X[c] = r.AlltoAllVChunk(d.EP, StageBwdS1A2A, send, chunks)
	}
	if opts.OnDWReady != nil {
		// dW is complete and no blocking collective remains (one chunk:
		// reverse S1 has retired; chunked: its chunks are in flight), so
		// gradient sync issued here queues behind them on the comm stream
		// and overlaps the drain, the scatter backward and every earlier
		// layer's backward compute.
		opts.OnDWReady()
	}

	// --- Drain reverse S1, then scatter into dX in pilot send order ---------
	retData, back := drainReturn(s1X, st.partStart, h, opts.Numeric)
	r.Compute(StageBwdS1Scat, comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilotSent)*int64(h)*elem))
	var dx *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dx = tensor.New(fwd.S, h)
		dWeights = make([]float32, pft.B())
		for dst, ret := range retData {
			pilotWG := back[dst].Meta.(bwdS1Meta).pilotWG
			for pos, ent := range st.pilotEntry[st.partStart[dst]:st.partStart[dst+1]] {
				dWeights[ent] = pilotWG[pos]
				dstRow := dx.Row(pft.TokenIDs[ent])
				for j, v := range ret[pos*h : (pos+1)*h] {
					dstRow[j] += v
				}
			}
		}
		for dst := 0; dst < p && len(st.replicaEntry) > 0; dst++ {
			for ri, ent := range st.replicaEntry[dst] {
				dWeights[ent] = back[dst].Meta.(bwdS1Meta).replicaWG[ri]
			}
		}
		// The forward state is consumed: its saved intermediates return to
		// the arena for the next layer's pass.
		pool.PutAll(fwd.ExpertIn, fwd.HidPre, fwd.HidAct, fwd.PilotOut)
		fwd.ExpertIn, fwd.HidPre, fwd.HidAct, fwd.PilotOut = nil, nil, nil, nil
		fwd.S2Back = nil
	}

	return moe.BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
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
