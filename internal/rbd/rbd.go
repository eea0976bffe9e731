// Package rbd implements X-MoE's Hierarchical Redundancy-Bypassing
// Dispatch (paper §4.2). With large top-k routing, a token is often sent
// to several experts that live on the same destination node; conventional
// dispatch ships one copy per expert across the slow inter-node links. RBD
// sends a single "pilot" copy per (token, destination node) over the
// inter-node fabric (Stage 1), reconstructs the remaining "local replica"
// copies from the pilot at the destination node, and forwards them to
// their expert's GPU over the fast intra-node links (Stage 2). The combine
// stage reverses the process, merging replica outputs into the pilot row
// intra-node (weight scaling included) before one inter-node return trip.
package rbd

import (
	"fmt"
	"slices"

	"xmoe/internal/moe"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Trace stage names matching the paper's Fig. 12 dispatch breakdown.
const (
	StageS1Inst      = "rbd_s1_inst"      // pilot selection + pilot buffer instantiation
	StageS1A2A       = "rbd_s1_a2a"       // inter-node all-to-all (pilots + metadata)
	StageS2Inst      = "rbd_s2_inst"      // local replica reconstruction
	StageS2A2A       = "rbd_s2_a2a"       // intra-node all-to-all (replicas)
	StageReconstruct = "rbd_reconstruct"  // expert input reconstruction (merge + order)
	StageC2A2A       = "rbd_comb_s2_a2a"  // combine: intra-node replica gather
	StageCMerge      = "rbd_comb_merge"   // combine: weight-scale + merge into pilots
	StageC1A2A       = "rbd_comb_s1_a2a"  // combine: inter-node pilot return
	StageCScatter    = "rbd_comb_scatter" // combine: final output reconstruction
)

// PilotPolicy selects which member of a (token, destination-node) group
// becomes the pilot.
type PilotPolicy int

const (
	// PilotRandom picks uniformly at random — the paper's choice, which
	// "helps avoid a biased distribution and creates a balanced workload
	// for alltoall communication" (§4.2).
	PilotRandom PilotPolicy = iota
	// PilotFirstExpert always picks the lowest expert ID, the biased
	// strategy the paper warns against; kept for the ablation benchmark.
	PilotFirstExpert
)

// Dispatcher holds the topology-derived state shared by all ranks of an
// expert-parallel group: the per-node subgroups used for the intra-node
// stage. Construct once (outside Cluster.Run) and share.
type Dispatcher struct {
	Cfg moe.Config
	EP  *simrt.Group
	// PilotPolicy selects the pilot-selection strategy (default
	// PilotRandom); the pilot ablation sets it before the run.
	PilotPolicy PilotPolicy
	// EPR is experts per rank.
	EPR int
	// nodeOfMember[m] is the machine node of EP member m.
	nodeOfMember []int
	// memberOf[e] and nodeOf[e] are the EP member owning global expert e
	// and the machine node hosting it: tables, because the Stage-2 staging
	// asks once per replica.
	memberOf, nodeOf []int32
	// nodeGroups maps node id -> intra-node communicator (EP members on
	// that node).
	nodeGroups map[int]*simrt.Group
	// nodeMembers maps node id -> EP member indices on that node
	// (ascending).
	nodeMembers map[int][]int
	// slotOfMember[m] is member m's slot within its node group — hoisted
	// out of the per-layer dispatch hot path.
	slotOfMember []int
	// nodeLo[m] is the first expert on member m's node, so a replica key
	// expert - nodeLo[m] is slot*EPR + le of the expert's owner there.
	nodeLo []int
	// nodeSlot[e] numbers the node hosting expert e densely, in order of
	// each node's first expert; nodes is how many nodes the group spans.
	// Every node hosts one contiguous expert range (NewGroup sorts its
	// ranks and Machine.NodeOf is monotone), so ascending slots are the
	// order in which a token's expert-ascending PFT entries first reach
	// each node.
	nodeSlot []int32
	nodes    int
}

// NewDispatcher builds the dispatcher for EP group ep on cluster c.
func NewDispatcher(c *simrt.Cluster, ep *simrt.Group, cfg moe.Config) *Dispatcher {
	if cfg.NumExperts%ep.Size() != 0 {
		panic(fmt.Sprintf("rbd: %d experts not divisible by EP size %d", cfg.NumExperts, ep.Size()))
	}
	d := &Dispatcher{
		Cfg:          cfg,
		EP:           ep,
		EPR:          cfg.NumExperts / ep.Size(),
		nodeOfMember: make([]int, ep.Size()),
		memberOf:     make([]int32, cfg.NumExperts),
		nodeOf:       make([]int32, cfg.NumExperts),
		nodeGroups:   map[int]*simrt.Group{},
		nodeMembers:  map[int][]int{},
		slotOfMember: make([]int, ep.Size()),
		nodeLo:       make([]int, ep.Size()),
		nodeSlot:     make([]int32, cfg.NumExperts),
	}
	for m, rank := range ep.Ranks() {
		node := c.Machine.NodeOf(rank)
		d.nodeOfMember[m] = node
		d.nodeMembers[node] = append(d.nodeMembers[node], m)
	}
	for node, members := range d.nodeMembers {
		ranks := make([]int, len(members))
		for i, m := range members {
			ranks[i] = ep.Ranks()[m]
			d.slotOfMember[m] = i
			d.nodeLo[m] = members[0] * d.EPR
		}
		d.nodeGroups[node] = c.NewGroup(ranks)
	}
	for e := range d.memberOf {
		d.memberOf[e] = int32(e / d.EPR)
		d.nodeOf[e] = int32(d.nodeOfMember[e/d.EPR])
		if e > 0 && d.nodeOf[e] != d.nodeOf[e-1] {
			d.nodes++
		}
		d.nodeSlot[e] = int32(d.nodes)
	}
	if cfg.NumExperts > 0 {
		d.nodes++
	}
	if cfg.NumExperts > 0 && d.nodes != len(d.nodeMembers) {
		panic(fmt.Sprintf("rbd: the EP group's %d nodes host %d expert ranges; each must host one contiguous range",
			len(d.nodeMembers), d.nodes))
	}
	return d
}

// memberOfExpert returns the EP member owning global expert e.
func (d *Dispatcher) memberOfExpert(e int) int { return int(d.memberOf[e]) }

// nodeKeys is the number of replica keys of member m's node: its members
// times EPR.
func (d *Dispatcher) nodeKeys(m int) int { return len(d.nodeMembers[d.nodeOfMember[m]]) * d.EPR }

// NodeOfExpert returns the machine node hosting global expert e.
func (d *Dispatcher) NodeOfExpert(e int) int { return int(d.nodeOf[e]) }

// replicaMeta describes one local replica travelling (as metadata only)
// alongside its pilot in Stage 1. Only numeric passes build them; its
// fields, like s2Sent's, are 32-bit because a numeric rank keeps one of
// each per replica through the forward and the backward.
type replicaMeta struct {
	// pilotRel is the replica's pilot row index, relative to the pilot
	// part it travels with (re-encoded to an absolute index after the
	// exchange, as in the paper).
	pilotRel int32
	// expert is the replica's destination expert (determines the Stage-2
	// destination GPU).
	expert int32
	// weight is the replica's combine weight.
	weight float32
}

// s1Meta is the metadata attached to each Stage-1 pilot part. Every charge
// reads its counts, which both modes carry; a symbolic part carries nothing
// else, and only numeric passes build the per-row fields.
type s1Meta struct {
	// counts[le] is the number of pilot rows destined to local expert le
	// of the receiving rank.
	counts []int
	// repByKey[key] is the number of the part's replicas of key expert -
	// nodeLo (slot*EPR + le on the receiving node).
	repByKey []int32
	// repCum[i] is the number of the part's replicas that merge into its
	// pilot rows [0, i): the pilots' replica prefix, pilots+1 long.
	repCum []int32
	// weights[i] is the combine weight of pilot row i in this part
	// (numeric only).
	weights []float32
	// replicas lists this part's local replicas in PFT order (numeric
	// only).
	replicas []replicaMeta
}

// pilots and nReplicas are the part's pilot rows and the replicas
// announced with them.
func (m s1Meta) pilots() int    { return len(m.repCum) - 1 }
func (m s1Meta) nReplicas() int { return int(m.repCum[len(m.repCum)-1]) }

// bytes is the part's wire metadata: counts, a weight per pilot and a
// 16-byte record per replica, whether or not this pass builds them.
func (m s1Meta) bytes() int64 {
	return int64(len(m.counts))*8 + int64(m.pilots())*4 + int64(m.nReplicas())*16
}

// s2Meta is the metadata of one Stage-2 part: how many of its replicas
// each local expert of the receiving rank gets and, numeric, the replicas
// themselves in staging order.
type s2Meta struct {
	perLE    []int
	replicas []replicaMeta
}

// rowRef is the origin of one expert-input row: a received pilot (part is
// pilotPart, pos its absolute row in the received pilot buffer) or a
// replica delivered by Stage 2 (pos within node-group member part's
// payload).
type rowRef struct{ part, pos int }

// pilotPart is rowRef.part of a pilot row.
const pilotPart = -1

// s2Sent records, on the pilot-holding rank of a numeric pass, where each
// Stage-2 replica row must merge back during combine, and which source rank
// announced it (src = EP member, ri = index into that source's
// s1Meta.replicas) so the backward can route the replica's combine-weight
// gradient home.
type s2Sent struct {
	pilotAbs int32
	weight   float32
	src, ri  int32
}

// State is one rank's dispatch bookkeeping: what Combine and Backward need
// to send every row back the way it came. Its expert-row layout is the
// layer's only one — the expert input, both FFN intermediates and the
// expert output hold, per local expert, the pilot rows source-ascending
// and then the replica rows (part, pos)-ascending — so a local expert's
// pilot block and replica block are each contiguous, which is what lets a
// chunked schedule price (and the backward compute) them apart without a
// second buffer.
//
// A symbolic state carries counts: the Stage-1 metadata's pilot and
// replica counts, the part offsets and the Stage-2 counts, which are all
// any charge reads. The per-row maps — the replica records, merge targets,
// pilot weights and the row map — are built by numeric passes only.
type State struct {
	// Source side.
	pft        *moe.PFT
	pilotEntry []int // PFT entry index of each sent pilot, send order
	// partStart[dst]:partStart[dst+1] is EP member dst's part of
	// pilotEntry: the rows it holds for this rank, and the length of the
	// part it returns in C1 and reverse S1.
	partStart []int
	// Destination side.
	recvMetas []s1Meta // stage-1 metadata per source
	// pilotPartOff[src] is the absolute offset of src's pilot part, and
	// pilotPartOff[p] = pilotRowsTotal.
	pilotPartOff   []int
	pilotRowsTotal int
	pilotRows      *tensor.Tensor // received pilot payload (numeric, until reconstruction)
	s2SentCount    []int          // replica rows staged to each node member
	s2SentByMember [][]s2Sent     // [nodeMember][pos] merge targets (numeric)
	s2RecvCount    []int          // rows received from each node member
	// RowsPerLE is the expert input segmentation for the sequential GEMM:
	// PilotRowsPerLE + ReplicaRowsPerLE, the sizes of each local expert's
	// two blocks.
	RowsPerLE, PilotRowsPerLE, ReplicaRowsPerLE []int
	// rows[i] is the origin of expert-input row i. Only the numeric passes
	// move rows, so a symbolic dispatch leaves it nil.
	rows []rowRef
	// node group used for stage 2
	nodeGroup *simrt.Group
	// save is the forward state retained for Backward (nil unless
	// opts.SaveForBackward); replicaEntry[dst][ri] (numeric only) is the
	// PFT entry index of the ri-th replica this rank announced to EP member
	// dst, mirroring the s1Meta.replicas order so returned weight gradients
	// map back to entries.
	save         *FwdState
	replicaEntry [][]int
}

// partLen is the length of src's pilot part: the rows src sent this rank
// in S1, which return to it in C1.
func (st *State) partLen(src int) int { return st.pilotPartOff[src+1] - st.pilotPartOff[src] }

// Dispatch runs RBD stages 0-2 for rank r: pilot selection, inter-node
// pilot exchange with replica metadata, replica reconstruction, intra-node
// replica exchange, and expert input reconstruction. dispIn is the [B, H]
// PFT-ordered token buffer (nil in symbolic mode); rng drives the
// randomized pilot selection (paper: random choice balances the
// all-to-all). It returns the combine state, with the three per-expert
// segmentations filled, and the expert input in the State layout (numeric
// mode).
func (d *Dispatcher) Dispatch(r *simrt.Rank, pft *moe.PFT, dispIn *tensor.Tensor, rng *tensor.RNG, opts moe.PipelineOpts) (*State, *tensor.Tensor) {
	return d.dispatch(r, pft, dispIn, rng, opts, nil)
}

// dispatch is Dispatch with a hook: underS2, when set and the schedule is
// chunked, runs while the Stage-2 exchange is in flight, after the pilot
// rows' reconstruction charge — where Forward charges the expert GEMMs of
// the pilot rows, which are local by then.
func (d *Dispatcher) dispatch(r *simrt.Rank, pft *moe.PFT, dispIn *tensor.Tensor, rng *tensor.RNG,
	opts moe.PipelineOpts, underS2 func(*State)) (*State, *tensor.Tensor) {

	h := d.Cfg.HModel
	rowBytes := int64(h) * int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	me := d.EP.IndexOf(r.ID)
	chunks := opts.Chunks()
	mem := &r.Dev().Mem
	// reconstruct charges the expert-input reconstruction pass over n rows.
	reconstruct := func(n int) {
		r.Compute(StageReconstruct, r.C.Comp.MemBound(perfmodel.ClassTriton, 2*int64(n)*rowBytes))
	}

	st := d.DispatchPilots(r, pft, dispIn, rng, opts)

	// --- Replica reconstruction + Stage 2 intra-node exchange --------------
	s2 := r.AlltoAllVChunk(st.nodeGroup, StageS2A2A, d.stageReplicas(r, st, opts), chunks)
	if chunks > 1 {
		// Chunked, the exchange is in flight and the pilot rows are already
		// here: their share of the reconstruction, and what the caller
		// computes on them, hides behind it.
		reconstruct(st.pilotRowsTotal)
		if underS2 != nil {
			underS2(st)
		}
	}
	s2Recv := s2.Wait()

	// --- Expert input reconstruction ---------------------------------------
	// Every received pilot is for one of my experts; the replicas Stage 2
	// delivered join them, grouped per local expert.
	st.s2RecvCount = make([]int, len(s2Recv))
	st.ReplicaRowsPerLE, st.RowsPerLE = make([]int, d.EPR), make([]int, d.EPR)
	for src, part := range s2Recv {
		for le, n := range part.Meta.(s2Meta).perLE {
			st.ReplicaRowsPerLE[le] += n
			st.s2RecvCount[src] += n
		}
	}
	totalRows := 0
	for le := range st.RowsPerLE {
		st.RowsPerLE[le] = st.PilotRowsPerLE[le] + st.ReplicaRowsPerLE[le]
		totalRows += st.RowsPerLE[le]
	}
	mem.Alloc("rbd_s2_recv", int64(totalRows-st.pilotRowsTotal)*rowBytes)
	mem.Alloc("rbd_expert_in", int64(totalRows)*rowBytes)
	if chunks > 1 {
		// The pilot rows were charged under the exchange.
		reconstruct(totalRows - st.pilotRowsTotal)
	} else {
		reconstruct(totalRows)
	}
	if !opts.Numeric {
		return st, nil
	}

	// The row map, in the State layout: next[le] walks local expert le's
	// segment, through its pilots (sources ascending; a source's part is
	// expert-sorted, so pos walks it once) and then its replicas.
	next := make([]int, d.EPR)
	for le := 1; le < d.EPR; le++ {
		next[le] = next[le-1] + st.RowsPerLE[le-1]
	}
	st.rows = make([]rowRef, totalRows)
	for src := 0; src < p; src++ {
		pos := st.pilotPartOff[src]
		for le, c := range st.recvMetas[src].counts {
			for ; c > 0; c-- {
				st.rows[next[le]] = rowRef{part: pilotPart, pos: pos}
				next[le]++
				pos++
			}
		}
	}
	for src, part := range s2Recv {
		for pos, rm := range part.Meta.(s2Meta).replicas {
			le := int(rm.expert) - me*d.EPR
			st.rows[next[le]] = rowRef{part: src, pos: pos}
			next[le]++
		}
	}
	expertIn := r.Pool().Get(totalRows, h)
	for row, ref := range st.rows {
		if ref.part == pilotPart {
			copy(expertIn.Row(row), st.pilotRows.Row(ref.pos))
		} else {
			copy(expertIn.Row(row), s2Recv[ref.part].Data[ref.pos*h:(ref.pos+1)*h])
		}
	}
	// pilotRows is fully consumed (stage-2 staging and the rows just
	// copied above); return it to the rank arena.
	r.Pool().Put(st.pilotRows)
	st.pilotRows = nil
	return st, expertIn
}

// DispatchPilots runs RBD stages 0-1 for rank r: pilot selection, pilot
// buffer instantiation, and the inter-node pilot exchange in
// opts.Chunks() chunks. The returned state holds the received pilot payload
// (numeric) and Stage-1 metadata, from which Dispatch continues with Stage 2.
func (d *Dispatcher) DispatchPilots(r *simrt.Rank, pft *moe.PFT, dispIn *tensor.Tensor, rng *tensor.RNG, opts moe.PipelineOpts) *State {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	me := d.EP.IndexOf(r.ID)
	myNode := d.nodeOfMember[me]
	nodeGroup := d.nodeGroups[myNode]
	comp := r.C.Comp
	mem := &r.Dev().Mem

	st := &State{pft: pft, nodeGroup: nodeGroup}
	if opts.SaveForBackward {
		st.save = &FwdState{St: st}
	}
	metas := d.selectPilots(st, rng, opts)
	pilotEntry, partStart := st.pilotEntry, st.partStart

	// --- Stage 1: pilot instantiation + inter-node exchange ----------------
	// Each destination part is split into opts.Chunks() row ranges; chunk
	// c's pilot rows are instantiated (gather compute) and its all-to-all
	// issued, so chunk c+1's instantiation hides behind chunk c's transfer
	// (one chunk: one gather pass, then the blocking exchange). The full
	// s1Meta rides with chunk 0 only, so the wire volume does not depend on
	// the chunk count; both ends derive later chunk boundaries from the
	// same ChunkRange split.
	chunks := opts.Chunks()
	var pilotBuf *tensor.Tensor
	if opts.Numeric {
		pilotBuf = tensor.New(len(pilotEntry), h)
	}
	mem.Alloc("rbd_pilot_send", int64(len(pilotEntry))*int64(h)*elem)
	sendFlat := make([]simrt.Part, chunks*p)
	s1 := make([]simrt.Exchange, chunks)
	for c := range s1 {
		send := sendFlat[c*p : (c+1)*p]
		instRows := 0
		for dst := 0; dst < p; dst++ {
			lo, hi := partStart[dst], partStart[dst+1]
			clo, chi := simrt.ChunkRange(hi-lo, chunks, c)
			instRows += chi - clo
			part := simrt.Part{Bytes: int64(chi-clo) * int64(h) * elem}
			if c == 0 {
				part.Meta = metas[dst]
				part.Bytes += metas[dst].bytes()
			}
			if opts.Numeric && chi > clo {
				for sp := lo + clo; sp < lo+chi; sp++ {
					copy(pilotBuf.Row(sp), dispIn.Row(pilotEntry[sp]))
				}
				part.Data = pilotBuf.Data[(lo+clo)*h : (lo+chi)*h]
			}
			send[dst] = part
		}
		r.Compute(StageS1Inst, comp.MemBound(perfmodel.ClassTriton, 2*int64(instRows)*int64(h)*elem))
		s1[c] = r.AlltoAllVChunk(d.EP, StageS1A2A, send, chunks)
	}

	st.pilotPartOff = make([]int, p+1)
	st.recvMetas = make([]s1Meta, p)
	for c, x := range s1 {
		recv := x.Wait()
		if c == 0 {
			for src, part := range recv {
				m := part.Meta.(s1Meta)
				st.recvMetas[src] = m
				st.pilotPartOff[src+1] = st.pilotPartOff[src] + m.pilots()
			}
			st.pilotRowsTotal = st.pilotPartOff[p]
			mem.Alloc("rbd_pilot_recv", int64(st.pilotRowsTotal)*int64(h)*elem)
			if opts.Numeric {
				st.pilotRows = r.Pool().Get(st.pilotRowsTotal, h)
			}
		}
		if !opts.Numeric {
			continue
		}
		for src, part := range recv {
			clo, _ := simrt.ChunkRange(st.partLen(src), chunks, c)
			copy(st.pilotRows.Data[(st.pilotPartOff[src]+clo)*h:], part.Data)
		}
	}

	// Pilot segmentation per local expert: known a whole exchange before
	// the replicas', which is what a chunked schedule hides Stage 2 behind.
	st.PilotRowsPerLE = make([]int, d.EPR)
	for _, m := range st.recvMetas {
		for le, n := range m.counts {
			st.PilotRowsPerLE[le] += n
		}
	}
	return st
}

// selectPilots is Stage 0 on the source rank: it groups st.pft's entries
// by (token, destination node), makes one entry of each group its pilot
// (the first under PilotFirstExpert, a uniform draw from rng under
// PilotRandom) and the others replicas of it. It fills st.pilotEntry (the
// pilots in PFT order, which is the send order: expert-major, so each
// member's part is contiguous and expert-sorted), st.partStart and, numeric
// with SaveForBackward, st.replicaEntry, and returns each member's Stage-1
// metadata: its counts always, its pilot weights and replica records
// numeric only.
//
// Four streaming passes over the PFT's expert segments and one table of
// numTokens × nodes cells do the grouping; no per-token list is built.
// Groups are drawn in (token, node slot) order, which is (token,
// first-seen node) order (see Dispatcher.nodeSlot): the order a per-token
// grouping visits them in, so a seed picks the pilots it would. Arrays the
// State keeps are sized to the pilot count, never to the PFT.
func (d *Dispatcher) selectPilots(st *State, rng *tensor.RNG, opts moe.PipelineOpts) []s1Meta {
	pft := st.pft
	p, nodes := d.EP.Size(), d.nodes
	numTokens := 0
	for _, t := range pft.TokenIDs {
		numTokens = max(numTokens, t+1)
	}
	// Cell (t, slot) is tab[2*(slot*numTokens+t)] and the lane after it:
	// slot-major, so the ascending tokens of an expert segment walk one
	// node's strip. Lane 0 holds the group's size until its pilot is found
	// and the pilot's member after; lane 1 counts down to the pilot (pick+1
	// entries), then holds -(pilot's row in its member's part)-1.
	tab := make([]int32, 2*numTokens*nodes)

	// Pass 1: group sizes.
	lo := 0
	for e, n := range pft.TokensPerExpert {
		strip := 2 * int(d.nodeSlot[e]) * numTokens
		for _, t := range pft.TokenIDs[lo : lo+n] {
			tab[strip+2*t]++
		}
		lo += n
	}

	// Pass 2: one pick per group, drawn in (token, slot) order.
	nPilots := 0
	for t := 0; t < numTokens; t++ {
		for c := 2 * t; c < len(tab); c += 2 * numTokens {
			if size := tab[c]; size > 0 {
				pick := 0
				if d.PilotPolicy == PilotRandom && size > 1 {
					pick = rng.Intn(int(size))
				}
				tab[c+1] = int32(pick + 1)
				nPilots++
			}
		}
	}

	// Pass 3: the pick-th entry of each group is its pilot, and the group's
	// other entries its replicas. Part metadata rows are views into flat
	// backing arrays (a constant allocation count regardless of the EP
	// size). Member dst's repCum is cntFlat[partStart[dst]+dst:][:pilots+1],
	// so the pilot sent at sp notes its replicas at sp+dst+1 before the
	// parts' sizes are known; the members' repByKey follow.
	st.pilotEntry = make([]int, 0, nPilots)
	st.partStart = make([]int, p+1)
	countsFlat := make([]int, p*d.EPR)
	nKeys := 0
	for dst := 0; dst < p; dst++ {
		nKeys += d.nodeKeys(dst)
	}
	cntFlat := make([]int32, nPilots+p+nKeys)
	var weightsFlat []float32
	if opts.Numeric {
		weightsFlat = make([]float32, nPilots)
	}
	lo = 0
	for e, n := range pft.TokensPerExpert {
		dst := e / d.EPR
		if e%d.EPR == 0 {
			st.partStart[dst] = len(st.pilotEntry)
		}
		strip := 2 * int(d.nodeSlot[e]) * numTokens
		for i, t := range pft.TokenIDs[lo : lo+n] {
			c := strip + 2*t
			if tab[c+1] <= 0 {
				continue // a replica after its pilot
			}
			if tab[c+1]--; tab[c+1] > 0 {
				continue // a replica before its pilot
			}
			ent, sp := lo+i, len(st.pilotEntry)
			if opts.Numeric {
				weightsFlat[sp] = pft.CombineWeights[ent]
			}
			cntFlat[sp+dst+1] = tab[c] - 1
			tab[c], tab[c+1] = int32(dst), int32(st.partStart[dst]-sp-1)
			st.pilotEntry = append(st.pilotEntry, ent)
			countsFlat[e]++ // counts[e - dst*EPR] of member dst's part
		}
		lo += n
	}
	st.partStart[p] = len(st.pilotEntry)
	metas := make([]s1Meta, p)
	keyOff := nPilots + p
	for dst := range metas {
		clo, chi := st.partStart[dst]+dst, st.partStart[dst+1]+dst+1
		repCum := cntFlat[clo:chi:chi]
		for i := 1; i < len(repCum); i++ {
			repCum[i] += repCum[i-1]
		}
		n := d.nodeKeys(dst)
		metas[dst] = s1Meta{
			counts:   countsFlat[dst*d.EPR : (dst+1)*d.EPR],
			repByKey: cntFlat[keyOff : keyOff+n : keyOff+n],
			repCum:   repCum,
		}
		keyOff += n
	}
	if opts.Numeric {
		nReplicas := pft.B() - nPilots
		replicasFlat := make([]replicaMeta, nReplicas)
		var entryFlat []int
		if opts.SaveForBackward {
			// Backward needs the replica -> PFT entry map to land returned
			// combine-weight gradients; views share one flat backing like
			// the metadata rows above.
			entryFlat = make([]int, nReplicas)
			st.replicaEntry = make([][]int, p)
		}
		off := 0
		for dst := range metas {
			metas[dst].weights = weightsFlat[st.partStart[dst]:st.partStart[dst+1]]
			metas[dst].replicas = replicasFlat[off:off]
			if entryFlat != nil {
				st.replicaEntry[dst] = entryFlat[off:off]
			}
			off += metas[dst].nReplicas()
		}
	}

	// Pass 4: the replicas, in PFT order, each to its pilot's member. A
	// replica's key depends on its expert only, as the pilot's member is on
	// the expert's node.
	next, lo := 0, 0 // next is a cursor into pilotEntry
	for e, n := range pft.TokensPerExpert {
		strip := 2 * int(d.nodeSlot[e]) * numTokens
		key := e - d.nodeLo[e/d.EPR]
		for i, t := range pft.TokenIDs[lo : lo+n] {
			ent := lo + i
			if next < len(st.pilotEntry) && st.pilotEntry[next] == ent {
				next++
				continue
			}
			c := strip + 2*t
			m := &metas[tab[c]]
			m.repByKey[key]++
			if !opts.Numeric {
				continue
			}
			m.replicas = append(m.replicas, replicaMeta{
				pilotRel: -tab[c+1] - 1,
				expert:   int32(e),
				weight:   pft.CombineWeights[ent],
			})
			if st.replicaEntry != nil {
				st.replicaEntry[tab[c]] = append(st.replicaEntry[tab[c]], ent)
			}
		}
		lo += n
	}
	return metas
}

// stageReplicas groups the incoming replicas by destination node member
// and local expert, from the sources' per-key counts, charges the Stage-2
// instantiation pass and returns the parts. Numeric, it also places each
// replica row and its merge target (st.s2SentByMember) and instantiates
// the send buffers from the received pilot payload.
func (d *Dispatcher) stageReplicas(r *simrt.Rank, st *State, opts moe.PipelineOpts) []simrt.Part {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	me := d.EP.IndexOf(r.ID)
	comp := r.C.Comp
	mem := &r.Dev().Mem

	// Key slot*EPR + le orders the rows by destination slot and, within a
	// slot, by ascending expert id: a node's members own ascending,
	// contiguous expert ranges and slots ascend with member index — the
	// paper's contiguous, destination-ordered local exchange buffer. The
	// per-key counts, the per-slot totals and (numeric) the placement
	// cursor share one backing.
	members := st.nodeGroup.Size()
	nKeys := members * d.EPR
	n := nKeys + members
	if opts.Numeric {
		n += nKeys
	}
	flat := make([]int, n)
	perKey := flat[:nKeys:nKeys]
	st.s2SentCount = flat[nKeys : nKeys+members : nKeys+members]
	for _, m := range st.recvMetas {
		for key, c := range m.repByKey {
			perKey[key] += int(c)
		}
	}
	nReplicasIn := 0
	for slot := range st.s2SentCount {
		for _, c := range perKey[slot*d.EPR : (slot+1)*d.EPR] {
			st.s2SentCount[slot] += c
		}
		nReplicasIn += st.s2SentCount[slot]
	}
	r.Compute(StageS2Inst, comp.MemBound(perfmodel.ClassTriton, 2*int64(nReplicasIn)*int64(h)*elem))
	mem.Alloc("rbd_s2_send", int64(nReplicasIn)*int64(h)*elem)

	var metaFlat []replicaMeta
	var sentFlat []s2Sent
	if opts.Numeric {
		// One counting sort: placing in (src, ri) visiting order keeps
		// arrival order within an expert, with no comparison sort.
		next := flat[nKeys+members:]
		for key := 1; key < nKeys; key++ {
			next[key] = next[key-1] + perKey[key-1]
		}
		metaFlat = make([]replicaMeta, nReplicasIn)
		sentFlat = make([]s2Sent, nReplicasIn)
		lo := d.nodeLo[me]
		for src, m := range st.recvMetas {
			for ri, rm := range m.replicas {
				key := int(rm.expert) - lo
				pos := next[key]
				next[key]++
				metaFlat[pos] = rm
				// pilotRel re-encodes to an absolute pilot-buffer row.
				sentFlat[pos] = s2Sent{pilotAbs: int32(st.pilotPartOff[src]) + rm.pilotRel, weight: rm.weight, src: int32(src), ri: int32(ri)}
			}
		}
		st.s2SentByMember = make([][]s2Sent, members)
	}

	s2Send := make([]simrt.Part, members)
	lo := 0
	for slot, n := range st.s2SentCount {
		hi := lo + n
		meta := s2Meta{perLE: perKey[slot*d.EPR : (slot+1)*d.EPR]}
		var data []float32
		if opts.Numeric {
			meta.replicas = metaFlat[lo:hi:hi]
			sent := sentFlat[lo:hi:hi]
			data = make([]float32, n*h)
			for pos, sr := range sent {
				copy(data[pos*h:(pos+1)*h], st.pilotRows.Row(int(sr.pilotAbs)))
			}
			st.s2SentByMember[slot] = sent
		}
		s2Send[slot] = simrt.Part{
			Data:  data,
			Meta:  meta,
			Bytes: int64(n)*int64(h)*elem + int64(n)*16,
		}
		lo = hi
	}
	return s2Send
}

// Combine reverses RBD for rank r: replica expert-outputs return to the
// pilot's rank intra-node (C2), are weight-scaled and merged into the pilot
// rows, and the inter-node return (C1, in opts.Chunks() chunks) brings the
// merged partial sums to the source rank, which accumulates them into the
// [s, H] layer output. expertOut must be row-aligned with the buffer
// returned by Dispatch.
//
// Every pilot row is scaled first and then receives its replica
// accumulations in (slot, pos) order, whatever the chunk count: chunking
// only buckets the accumulations by the C1 chunk their pilot row returns
// in, so the output does not depend on it.
func (d *Dispatcher) Combine(r *simrt.Rank, st *State, expertOut *tensor.Tensor, s int, opts moe.PipelineOpts) *tensor.Tensor {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	chunks := opts.Chunks()
	// merge charges the weight-scaled merge pass over n rows.
	merge := func(n int) {
		r.Compute(StageCMerge, r.C.Comp.MemBound(perfmodel.ClassTriton, 2*int64(n)*int64(h)*elem))
	}

	// Split expert outputs back into pilot-aligned and replica-aligned
	// rows (host-side staging, uncharged).
	var pilotOut *tensor.Tensor
	replicaOut := make([][]float32, len(st.s2RecvCount))
	if opts.Numeric {
		pilotOut = r.Pool().Get(st.pilotRowsTotal, h)
		for src := range replicaOut {
			replicaOut[src] = make([]float32, st.s2RecvCount[src]*h)
		}
		for row, ref := range st.rows {
			if ref.part == pilotPart {
				copy(pilotOut.Row(ref.pos), expertOut.Row(row))
			} else {
				copy(replicaOut[ref.part][ref.pos*h:(ref.pos+1)*h], expertOut.Row(row))
			}
		}
	}

	// --- Combine stage 2 (intra-node): return replica outputs --------------
	c2 := r.AlltoAllVChunk(st.nodeGroup, StageC2A2A, st.c2Parts(replicaOut, h, elem), chunks)
	var merged *tensor.Tensor
	r.Dev().Mem.Alloc("rbd_merged", int64(st.pilotRowsTotal)*int64(h)*elem)
	if opts.Numeric {
		merged = st.scalePilots(pilotOut, h)
	}
	if chunks > 1 {
		// Chunked, the pilot scaling — which reads no replica row — is its
		// own pass, hidden behind the in-flight exchange.
		merge(st.pilotRowsTotal)
	}
	s2Back := c2.Wait()
	if opts.Numeric {
		st.keepOutputs(r, pilotOut, s2Back)
	}

	// --- Merge replicas into pilots + inter-node pilot return --------------
	// Chunk c's accumulations are charged before its return leaves, so
	// chunk c+1's hide behind chunk c's transfer.
	mergeOff, merges := st.mergesByChunk(chunks, opts.Numeric)
	c1 := make([]simrt.Exchange, chunks)
	sendFlat := make([]simrt.Part, chunks*p)
	for c := range c1 {
		if opts.Numeric {
			for _, mr := range merges[mergeOff[c]:mergeOff[c+1]] {
				sRec := st.s2SentByMember[mr.slot][mr.pos]
				dst := merged.Row(int(sRec.pilotAbs))
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
		st.returnParts(sendBack, merged, h, elem, chunks, c)
		c1[c] = r.AlltoAllVChunk(d.EP, StageC1A2A, sendBack, chunks)
	}
	return d.finishCombine(r, st, c1, s, opts)
}

// c2Parts wraps the replica expert outputs, one payload per node member
// (nil in symbolic mode), as the C2 intra-node return parts.
func (st *State) c2Parts(replicaOut [][]float32, h int, elem int64) []simrt.Part {
	send := make([]simrt.Part, len(st.s2RecvCount))
	for slot, n := range st.s2RecvCount {
		send[slot] = simrt.Part{Data: replicaOut[slot], Bytes: int64(n) * int64(h) * elem}
	}
	return send
}

// scalePilots starts the merge buffer: every held pilot row's expert
// output (pilotOut, absolute-indexed) scaled by its combine weight, which
// precedes any replica accumulation onto the row.
func (st *State) scalePilots(pilotOut *tensor.Tensor, h int) *tensor.Tensor {
	merged := tensor.New(st.pilotRowsTotal, h)
	for src, m := range st.recvMetas {
		for pos, w := range m.weights {
			abs := st.pilotPartOff[src] + pos
			dst := merged.Row(abs)
			for j, v := range pilotOut.Row(abs) {
				dst[j] = w * v
			}
		}
	}
	return merged
}

// keepOutputs hands the pre-scaling expert outputs to the saved forward
// state — Backward dots the merged-row gradients against them; the replica
// return payloads are sender-fresh, so the views stay valid past the
// rendezvous — or recycles pilotOut when nothing is saved.
func (st *State) keepOutputs(r *simrt.Rank, pilotOut *tensor.Tensor, s2Back []simrt.Part) {
	if st.save == nil {
		r.Pool().Put(pilotOut)
		return
	}
	st.save.PilotOut = pilotOut
	st.save.S2Back = make([][]float32, len(s2Back))
	for slot := range s2Back {
		st.save.S2Back[slot] = s2Back[slot].Data
	}
}

// returnParts fills send with chunk c of every source's merged pilot rows
// (views of merged, nil in symbolic mode): the C1 return parts.
func (st *State) returnParts(send []simrt.Part, merged *tensor.Tensor, h int, elem int64, chunks, c int) {
	for src := range send {
		clo, chi := simrt.ChunkRange(st.partLen(src), chunks, c)
		part := simrt.Part{Bytes: int64(chi-clo) * int64(h) * elem}
		if merged != nil && chi > clo {
			lo := st.pilotPartOff[src] + clo
			part.Data = merged.Data[lo*h : (lo+chi-clo)*h]
		}
		send[src] = part
	}
}

// drainReturn waits the chunks of an inter-node return exchange on the
// source rank and, in numeric mode, reassembles each member's returned
// rows (partStart[dst+1]-partStart[dst] of them, h wide, in pilot send
// order; the member chunks its part by the same ChunkRange split): a chunk
// that is the member's whole part is used as it arrived, smaller ones land
// at their ChunkRange offsets. It also returns chunk 0's parts, which
// carry the exchange's metadata.
func drainReturn(xs []simrt.Exchange, partStart []int, h int, numeric bool) (ret [][]float32, first []simrt.Part) {
	if numeric {
		ret = make([][]float32, len(partStart)-1)
	}
	for c, x := range xs {
		back := x.Wait()
		if c == 0 {
			first = back
		}
		if !numeric {
			continue
		}
		for dst := range ret {
			n := partStart[dst+1] - partStart[dst]
			data := back[dst].Data
			if len(data) == n*h {
				ret[dst] = data
			} else if len(data) > 0 {
				if ret[dst] == nil {
					ret[dst] = make([]float32, n*h)
				}
				clo, _ := simrt.ChunkRange(n, len(xs), c)
				copy(ret[dst][clo*h:], data)
			}
		}
	}
	return ret, first
}

// finishCombine drains the C1 pilot-return chunks on the source rank and
// reconstructs the [s, H] layer output from them.
func (d *Dispatcher) finishCombine(r *simrt.Rank, st *State, c1 []simrt.Exchange, s int, opts moe.PipelineOpts) *tensor.Tensor {
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	retData, _ := drainReturn(c1, st.partStart, h, opts.Numeric)

	r.Compute(StageCScatter, r.C.Comp.MemBound(perfmodel.ClassTriton,
		2*int64(len(st.pilotEntry))*int64(h)*elem))
	r.Dev().Mem.Alloc("output", int64(s)*int64(h)*elem)
	if !opts.Numeric {
		return nil
	}
	out := tensor.New(s, h)
	// Parts return in member order; rows align with the pilot send order.
	for dst, ret := range retData {
		for pos, ent := range st.pilotEntry[st.partStart[dst]:st.partStart[dst+1]] {
			dstRow := out.Row(st.pft.TokenIDs[ent])
			for j, v := range ret[pos*h : (pos+1)*h] {
				dstRow[j] += v
			}
		}
	}
	return out
}

// s2SentRows is how many replica rows this rank staged into Stage 2.
func (st *State) s2SentRows() int {
	n := 0
	for _, c := range st.s2SentCount {
		n += c
	}
	return n
}

// mergeRef locates one Stage-2 replica row: st.s2SentByMember[slot][pos].
type mergeRef struct{ slot, pos int }

// mergesByChunk buckets the replica merges by the C1 chunk their pilot row
// returns in (chunk c of a source's part is its rows ChunkRange(n, chunks,
// c)), keeping (slot, pos) order inside a chunk — the order a pilot row's
// accumulations must keep. off[c]:off[c+1] delimits chunk c in refs: the
// replicas the sources' repCum prefixes put on the chunk's pilot rows, for
// any chunk count. refs is built numeric only; the symbolic mode needs
// the offsets alone.
func (st *State) mergesByChunk(chunks int, numeric bool) (off []int, refs []mergeRef) {
	off = make([]int, chunks+1)
	for c := 0; c < chunks; c++ {
		off[c+1] = off[c]
		for src, m := range st.recvMetas {
			clo, chi := simrt.ChunkRange(st.partLen(src), chunks, c)
			off[c+1] += int(m.repCum[chi] - m.repCum[clo])
		}
	}
	if !numeric {
		return off, nil
	}
	// The chunk of row pos of an n-row part inverts ChunkRange's floor split.
	chunkOf := func(sRec s2Sent) int {
		pos := int(sRec.pilotAbs) - st.pilotPartOff[sRec.src]
		return ((pos+1)*chunks - 1) / st.partLen(int(sRec.src))
	}
	refs = make([]mergeRef, off[chunks])
	next := append([]int(nil), off[:chunks]...)
	for slot, sent := range st.s2SentByMember {
		for pos, sRec := range sent {
			c := chunkOf(sRec)
			refs[next[c]] = mergeRef{slot: slot, pos: pos}
			next[c]++
		}
	}
	return off, refs
}

// Redundancy analyses a routing against an expert->node placement: total
// dispatched copies, how many are redundant (would duplicate another copy
// of the same token to the same node), and how many cross node boundaries.
type Redundancy struct {
	Total      int
	Redundant  int
	InterNode  int // copies whose destination node differs from source
	PilotInter int // pilots crossing node boundaries (RBD's inter-node volume)
}

// Rate returns the redundant fraction of all dispatched copies (paper
// Fig. 4).
func (r Redundancy) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Redundant) / float64(r.Total)
}

// AnalyzeRedundancy computes redundancy for routing r where expert e lives
// on node nodeOfExpert(e) and the source rank lives on srcNode. A token's
// distinct destination nodes (at most k) are kept in a short slice and
// scanned.
func AnalyzeRedundancy(rt moe.Routing, nodeOfExpert func(int) int, srcNode int) Redundancy {
	red := Redundancy{Total: len(rt.Experts)}
	k := rt.K()
	nodes := make([]int, 0, k) // the current token's destination nodes so far
	for t := 0; t < rt.S; t++ {
		nodes = nodes[:0]
		for _, e := range rt.Experts[t*k : (t+1)*k] {
			node := nodeOfExpert(int(e))
			if node != srcNode {
				red.InterNode++
			}
			if slices.Contains(nodes, node) {
				red.Redundant++
				continue
			}
			nodes = append(nodes, node)
			if node != srcNode {
				red.PilotInter++
			}
		}
	}
	return red
}

// ExpectedRedundancyRate returns the closed-form redundancy rate for
// uniform top-k routing over E experts placed across n nodes with the
// canonical block placement nodeOfExpert(x) = x*n/E (equal blocks when
// n | E, blocks differing by one otherwise). For each node holding c
// experts, P(node receives no copy) = C(E-c, k)/C(E, k); summing the
// per-node hit probabilities gives the exact hypergeometric expectation
// of distinct destination nodes, and the rate is 1 minus that divided by
// k. Exact for any (E, k, n) — the non-divisible case uses each node's
// true integer expert count, not the fractional E/n approximation.
func ExpectedRedundancyRate(e, k, nodes int) float64 {
	if nodes <= 0 || k <= 0 || e <= 0 {
		return 0
	}
	if k > e {
		k = e
	}
	perNode := make([]int, nodes)
	for x := 0; x < e; x++ {
		perNode[x*nodes/e]++
	}
	expectedNodes := 0.0
	for _, c := range perNode {
		// P(no copy on this node) = prod_{i=0..k-1} (E - c - i) / (E - i).
		pNone := 1.0
		for i := 0; i < k && pNone != 0; i++ {
			num := e - c - i
			if num <= 0 {
				pNone = 0
				break
			}
			pNone *= float64(num) / float64(e-i)
		}
		expectedNodes += 1 - pNone
	}
	if expectedNodes > float64(k) {
		expectedNodes = float64(k)
	}
	return 1 - expectedNodes/float64(k)
}
