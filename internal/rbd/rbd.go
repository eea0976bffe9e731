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

// Dispatcher holds the topology-derived state shared by all ranks of an
// expert-parallel group: the per-node subgroups used for the intra-node
// stage. Construct once (outside Cluster.Run) and share.
type Dispatcher struct {
	Cfg moe.Config
	EP  *simrt.Group
	// EPR is experts per rank.
	EPR int
	// nodeOfMember[m] is the machine node of EP member m.
	nodeOfMember []int
	// nodeOf[e] is the machine node hosting global expert e.
	nodeOf []int32
	// nodeGroups maps node id -> intra-node communicator (EP members on
	// that node).
	nodeGroups map[int]*simrt.Group
	// nodeMembers maps node id -> EP member indices on that node
	// (ascending).
	nodeMembers map[int][]int
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
		nodeOf:       make([]int32, cfg.NumExperts),
		nodeGroups:   map[int]*simrt.Group{},
		nodeMembers:  map[int][]int{},
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
			d.nodeLo[m] = members[0] * d.EPR
		}
		d.nodeGroups[node] = c.NewGroup(ranks)
	}
	for e := range d.nodeOf {
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

// State is one rank's RBD exchange for one layer call: the dispatch
// bookkeeping the combine and the backward need to send every row back the
// way it came, and the moe.Exchange the one MoE layer body drives
// (forward.go, backward.go). Its expert-row layout is the layer's only
// one: the expert input, both FFN intermediates and the expert output
// hold, per local expert, the pilot rows source-ascending and then the
// replica rows (part, pos)-ascending. So a local expert's pilot block and
// replica block are each contiguous, which is what lets a chunked schedule
// price (and the backward compute) them apart without a second buffer.
//
// A symbolic state carries counts: the Stage-1 metadata's pilot and
// replica counts, the part offsets and the Stage-2 counts, which are all
// any charge reads. The per-row maps — the replica records, merge targets,
// pilot weights and the row map — are built by numeric passes only.
type State struct {
	d       *Dispatcher
	rng     *tensor.RNG      // drives the randomized pilot selection
	opts    moe.PipelineOpts // the current pass's
	numeric bool             // the forward was handed rows
	s       int              // the layer's local tokens
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
	s2SentTotal    int            // and in all
	s2SentByMember [][]s2Sent     // [nodeMember][pos] merge targets (numeric)
	s2RecvCount    []int          // rows received from each node member
	// RowsPerLE is the expert input segmentation for the sequential GEMM:
	// PilotRowsPerLE + ReplicaRowsPerLE, the sizes of each local expert's
	// two blocks, whose first rows are rowsOff[le] and replicaOff[le].
	RowsPerLE, PilotRowsPerLE, ReplicaRowsPerLE []int
	rowsOff, replicaOff                         []int
	// The row map: pilotRow[abs] is the State-layout row of received pilot
	// abs, and replicaRow[part][pos] that of replica pos of the Stage-2
	// part from node member part. Only the numeric passes move rows, so a
	// symbolic dispatch leaves them nil.
	pilotRow   []int
	replicaRow [][]int
	// node group used for stage 2
	nodeGroup *simrt.Group
	// replicaEntry[dst][ri] (numeric with SaveForBackward only) is the PFT
	// entry index of the ri-th replica this rank announced to EP member dst,
	// mirroring the s1Meta.replicas order so returned weight gradients map
	// back to entries.
	replicaEntry [][]int
	// With SaveForBackward, pilotOut keeps every held pilot row's expert
	// output ([pilotRowsTotal, H], absolute-indexed) and c2 the forward's
	// C2 exchange, whose part from slot holds the replica outputs it
	// returned, aligned with s2SentByMember[slot]: the combine-weight
	// gradients dot against them, and the backward releases them after.
	pilotOut *tensor.Tensor
	c2       simrt.Exchange
}

// partLen is the length of src's pilot part: the rows src sent this rank
// in S1, which return to it in C1.
func (st *State) partLen(src int) int { return st.pilotPartOff[src+1] - st.pilotPartOff[src] }

// newState starts one layer call's exchange on a rank.
func (d *Dispatcher) newState(rng *tensor.RNG, opts moe.PipelineOpts) *State {
	return &State{d: d, rng: rng, opts: opts}
}

// dispatchPilots runs RBD stages 0-1 for rank r: pilot selection, pilot
// buffer instantiation, and the inter-node pilot exchange in
// opts.Chunks() chunks. The layer call is numeric exactly when it is
// handed the layout's rows (dispIn). It leaves the received pilot payload
// (numeric) and Stage-1 metadata in st, from which Stage 2 continues.
func (st *State) dispatchPilots(r *simrt.Rank, pft *moe.PFT, dispIn *tensor.Tensor) {
	d, opts := st.d, st.opts
	h := d.Cfg.HModel
	elem := int64(d.Cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp
	mem := &r.Dev().Mem

	st.pft, st.numeric, st.nodeGroup = pft, dispIn != nil, d.nodeGroups[d.nodeOfMember[d.EP.IndexOf(r.ID)]]
	metas := d.selectPilots(st, st.rng, opts)
	pilotEntry := st.pilotEntry

	// --- Stage 1: pilot instantiation + inter-node exchange ----------------
	// Each destination part is split into opts.Chunks() row ranges; chunk
	// c's pilot rows are instantiated (gather compute) and its all-to-all
	// issued, so chunk c+1's instantiation hides behind chunk c's transfer
	// (one chunk: one gather pass, then the blocking exchange). The full
	// s1Meta rides with chunk 0 only, so the wire volume does not depend on
	// the chunk count; both ends derive later chunk boundaries from the
	// same ChunkRange split.
	chunks := opts.Chunks()
	var pilotBuf *simrt.Loan
	if st.numeric {
		pilotBuf = r.Lend(len(pilotEntry) * h)
		for sp, ent := range pilotEntry {
			copy(pilotBuf.Data[sp*h:(sp+1)*h], dispIn.Row(ent))
		}
	}
	mem.Alloc("rbd_pilot_send", int64(len(pilotEntry))*int64(h)*elem)
	sendFlat := make([]simrt.Part, chunks*p)
	s1 := make([]simrt.Exchange, chunks)
	for c := range s1 {
		send := sendFlat[c*p : (c+1)*p]
		instRows := chunkParts(send, pilotBuf, st.partStart, h, elem, chunks, c)
		if c == 0 {
			for dst := range send {
				send[dst].Meta = metas[dst]
				send[dst].Bytes += metas[dst].bytes()
			}
		}
		r.Compute(StageS1Inst, comp.MemBound(perfmodel.ClassTriton, 2*int64(instRows)*int64(h)*elem))
		s1[c] = r.AlltoAllVChunk(d.EP, StageS1A2A, send, pilotBuf, chunks)
	}
	pilotBuf.Done()

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
			if st.numeric {
				st.pilotRows = r.Pool().Get(st.pilotRowsTotal, h)
			}
		}
		if !st.numeric {
			continue
		}
		for src, part := range recv {
			clo, _ := simrt.ChunkRange(st.partLen(src), chunks, c)
			copy(st.pilotRows.Data[(st.pilotPartOff[src]+clo)*h:], part.Data)
		}
		x.Release()
	}

	// Pilot segmentation per local expert: known a whole exchange before
	// the replicas', which is what a chunked schedule hides Stage 2 behind.
	st.PilotRowsPerLE = make([]int, d.EPR)
	for _, m := range st.recvMetas {
		for le, n := range m.counts {
			st.PilotRowsPerLE[le] += n
		}
	}
}

// selectPilots is Stage 0 on the source rank: it groups st.pft's entries
// by (token, destination node), makes one entry of each group its pilot
// (per opts.PilotPolicy: the first under moe.PilotFirstExpert, a uniform
// draw from rng under moe.PilotRandom) and the others replicas of it. It
// fills st.pilotEntry (the pilots in PFT order, which is the send order:
// expert-major, so each member's part is contiguous and expert-sorted),
// st.partStart and, numeric with SaveForBackward, st.replicaEntry, and
// returns each member's Stage-1 metadata: its counts always, its pilot
// weights and replica records numeric only.
//
// Four streaming passes over the PFT's expert segments and one table of
// numTokens × nodes cells do the grouping; no per-token list is built.
// Groups are drawn in (token, node slot) order, which is (token,
// first-seen node) order (see Dispatcher.nodeSlot): the order a per-token
// grouping visits them in, so a seed picks the pilots it would. The passes
// branch on no entry's data: which entry is a pilot is a mask, and a
// count is a compare added as an integer, so the per-entry work is the
// same whatever the routing. Arrays the State keeps are sized to the pilot
// count, never to the PFT.
func (d *Dispatcher) selectPilots(st *State, rng *tensor.RNG, opts moe.PipelineOpts) []s1Meta {
	pft, numeric := st.pft, st.numeric
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

	// Pass 1: group sizes, and the number of groups, which is the number
	// of pilots.
	nPilots, lo := 0, 0
	for e, n := range pft.TokensPerExpert {
		strip := 2 * int(d.nodeSlot[e]) * numTokens
		for _, t := range pft.TokenIDs[lo : lo+n] {
			size := tab[strip+2*t] + 1
			tab[strip+2*t] = size
			nPilots += b2i(size == 1)
		}
		lo += n
	}

	// Pass 2: every group's pick is its first entry (lane 1 = 1), and the
	// groups a draw can move — two or more entries — are listed in (token,
	// slot) order; the list's cursor advances past a cell only when it is
	// one. moe.PilotRandom then draws the listed picks in list order, the
	// (token, slot) order of the groups that draw. The list borrows
	// pilotEntry, which pass 3 fills: it has a slot per group and a spare
	// one for the write a full list still makes.
	pilotEntry := make([]int, nPilots+1)
	multi, nMulti := pilotEntry, 0
	for t := 0; t < numTokens; t++ {
		for c := 2 * t; c < len(tab); c += 2 * numTokens {
			tab[c+1] = 1
			multi[nMulti] = c
			nMulti += b2i(tab[c] > 1)
		}
	}
	if opts.PilotPolicy == moe.PilotRandom {
		for _, c := range multi[:nMulti] {
			tab[c+1] = int32(rng.Intn(int(tab[c]))) + 1
		}
	}

	// Pass 3: the pick-th entry of each group is its pilot, and the group's
	// other entries its replicas. Part metadata rows are views into flat
	// backing arrays (a constant allocation count regardless of the EP
	// size). Member dst's repCum is cntFlat[partStart[dst]+dst:][:pilots+1],
	// so the pilot sent at np notes its replicas at np+dst+1 before the
	// parts' sizes are known; the members' repByKey follow, member m's at
	// keyBase[m]. Every entry writes the next pilot's slots — pilotEntry[np],
	// the weight and the note at np+dst+1, which a replica makes zero — and
	// np advances only past a pilot. So a replica's writes are overwritten
	// by its member's next pilot or land where a zero belongs: the next
	// member's leading repCum entry, member 0's first key (pass 4 counts
	// from zero), or the spare slot pilotEntry and the weights carry.
	// isPilot, as a mask, also picks the lanes' update: the countdown steps
	// down while positive, and a pilot stores its member and -row-1.
	nc := p * d.EPR
	ints := make([]int, nc+2*p+1) // countsFlat, partStart, keyBase
	countsFlat, partStart, keyBase := ints[:nc], ints[nc:nc+p+1], ints[nc+p+1:]
	keyOff := nPilots + p
	for dst := range keyBase {
		keyBase[dst] = keyOff
		keyOff += d.nodeKeys(dst)
	}
	cntFlat := make([]int32, keyOff)
	var weightsFlat []float32
	if numeric {
		weightsFlat = make([]float32, nPilots+1)
	}
	np, lo := 0, 0 // np is the next pilot's send position
	for e, n := range pft.TokensPerExpert {
		dst := e / d.EPR
		if e%d.EPR == 0 {
			partStart[dst] = np
		}
		strip := 2 * int(d.nodeSlot[e]) * numTokens
		np0, lead := np, int32(partStart[dst]-1)
		for i, t := range pft.TokenIDs[lo : lo+n] {
			ent, c := lo+i, strip+2*t
			size, lane := tab[c], tab[c+1]
			isPilot := b2i(lane == 1)
			mask := -int32(isPilot)
			pilotEntry[np] = ent
			if numeric {
				weightsFlat[np] = pft.CombineWeights[ent]
			}
			cntFlat[np+dst+1] = (size - 1) & mask
			tab[c] = size&^mask | int32(dst)&mask
			tab[c+1] = (lane-int32(b2i(lane > 0)))&^mask | (lead-int32(np))&mask
			np += isPilot
		}
		countsFlat[e] = np - np0 // counts[e - dst*EPR] of member dst's part
		lo += n
	}
	partStart[p] = np
	st.pilotEntry, st.partStart = pilotEntry[:nPilots], partStart
	metas := make([]s1Meta, p)
	for dst := range metas {
		clo, chi := partStart[dst]+dst, partStart[dst+1]+dst+1
		repCum := cntFlat[clo:chi:chi]
		var cum int32
		for i, n := range repCum {
			cum += n
			repCum[i] = cum
		}
		khi := keyBase[dst] + d.nodeKeys(dst)
		metas[dst] = s1Meta{
			counts:   countsFlat[dst*d.EPR : (dst+1)*d.EPR],
			repByKey: cntFlat[keyBase[dst]:khi:khi],
			repCum:   repCum,
		}
	}
	if numeric {
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
			metas[dst].weights = weightsFlat[partStart[dst]:partStart[dst+1]]
			metas[dst].replicas = replicasFlat[off:off]
			if entryFlat != nil {
				st.replicaEntry[dst] = entryFlat[off:off]
			}
			off += metas[dst].nReplicas()
		}
	}

	// Pass 4: the replicas, in PFT order, each to its pilot's member. A
	// replica's key depends on its expert only, as the pilot's member is on
	// the expert's node. An entry is a pilot when the pilotEntry cursor
	// names it (the -1 in the spare slot names none) and then counts zero.
	pilotEntry[nPilots] = -1
	next, lo := 0, 0 // next is a cursor into pilotEntry
	for e, n := range pft.TokensPerExpert {
		strip := 2 * int(d.nodeSlot[e]) * numTokens
		key := e - d.nodeLo[e/d.EPR]
		for i, t := range pft.TokenIDs[lo : lo+n] {
			ent, c := lo+i, strip+2*t
			isPilot := b2i(pilotEntry[next] == ent)
			next += isPilot
			cntFlat[keyBase[tab[c]]+key] += int32(1 - isPilot)
			if numeric && isPilot == 0 {
				m := &metas[tab[c]]
				m.replicas = append(m.replicas, replicaMeta{
					pilotRel: -tab[c+1] - 1,
					expert:   int32(e),
					weight:   pft.CombineWeights[ent],
				})
				if st.replicaEntry != nil {
					st.replicaEntry[tab[c]] = append(st.replicaEntry[tab[c]], ent)
				}
			}
		}
		lo += n
	}
	return metas
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stageReplicas groups the incoming replicas by destination node member
// and local expert, from the sources' per-key counts, charges the Stage-2
// instantiation pass and returns the parts. Numeric, it also places each
// replica row and its merge target (st.s2SentByMember) and instantiates
// the payloads from the received pilot rows into one buffer lent from r's
// arena, which it returns for the exchange to name and the caller to Done.
func (d *Dispatcher) stageReplicas(r *simrt.Rank, st *State) ([]simrt.Part, *simrt.Loan) {
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
	if st.numeric {
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
	st.s2SentTotal = nReplicasIn
	r.Compute(StageS2Inst, comp.MemBound(perfmodel.ClassTriton, 2*int64(nReplicasIn)*int64(h)*elem))
	mem.Alloc("rbd_s2_send", int64(nReplicasIn)*int64(h)*elem)

	var metaFlat []replicaMeta
	var sentFlat []s2Sent
	var lent *simrt.Loan
	if st.numeric {
		lent = r.Lend(nReplicasIn * h)
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
		if st.numeric {
			meta.replicas = metaFlat[lo:hi:hi]
			sent := sentFlat[lo:hi:hi]
			data = lent.Data[lo*h : hi*h]
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
	return s2Send, lent
}

// chunkParts fills send[i] with chunk c of rows [off[i], off[i+1]) of the
// lent buf (views; sizes only when buf is nil), the member split both ends
// of an RBD exchange derive from the same ChunkRange, and returns the
// chunk's rows.
func chunkParts(send []simrt.Part, buf *simrt.Loan, off []int, h int, elem int64, chunks, c int) (rows int) {
	for i := range send {
		clo, chi := simrt.ChunkRange(off[i+1]-off[i], chunks, c)
		rows += chi - clo
		send[i] = simrt.Part{Bytes: int64(chi-clo) * int64(h) * elem}
		if buf != nil && chi > clo {
			send[i].Data = buf.Data[(off[i]+clo)*h : (off[i]+chi)*h]
		}
	}
	return rows
}

// toLayout copies the held pilot rows (pilots, absolute-indexed; nil skips
// them) and the Stage-2 parts' replica rows to their State-layout rows of
// dst.
func (st *State) toLayout(dst, pilots *tensor.Tensor, parts []simrt.Part) {
	h := dst.Cols()
	if pilots != nil {
		for abs, row := range st.pilotRow {
			copy(dst.Row(row), pilots.Row(abs))
		}
	}
	for src, rows := range st.replicaRow {
		for pos, row := range rows {
			copy(dst.Row(row), parts[src].Data[pos*h:(pos+1)*h])
		}
	}
}

// fromLayout is the reverse of toLayout: it copies src's pilot rows to
// pilots (absolute-indexed, h wide) and returns its replica rows as the
// Stage-2 return parts, one view per node member of a buffer lent from r's
// arena, and that loan for the exchange to name and the caller to Done
// (sizes only, and no loan, when src is nil).
func (st *State) fromLayout(r *simrt.Rank, src *tensor.Tensor, pilots []float32) ([]simrt.Part, *simrt.Loan) {
	h := st.d.Cfg.HModel
	parts := make([]simrt.Part, len(st.s2RecvCount))
	replicas := 0
	for m, n := range st.s2RecvCount {
		parts[m].Bytes = int64(n) * int64(h) * int64(st.d.Cfg.BytesPerElem)
		replicas += n
	}
	if src == nil {
		return parts, nil
	}
	for abs, row := range st.pilotRow {
		copy(pilots[abs*h:(abs+1)*h], src.Row(row))
	}
	lent := r.Lend(replicas * h)
	pos := 0
	for m, rows := range st.replicaRow {
		start := pos
		for _, row := range rows {
			pos += copy(lent.Data[pos:], src.Row(row))
		}
		parts[m].Data = lent.Data[start:pos]
	}
	return parts, lent
}

// scatterReturn clears out and adds the returned pilot rows (ret, in pilot
// send order) into their tokens' rows of it.
func (st *State) scatterReturn(out, ret *tensor.Tensor) {
	clear(out.Data)
	for i, ent := range st.pilotEntry {
		o := out.Row(st.pft.TokenIDs[ent])
		for j, v := range ret.Row(i) {
			o[j] += v
		}
	}
}

// drainReturn waits the chunks of an inter-node return exchange on the
// source rank and, in numeric mode, lands every member's returned rows
// (partStart[dst+1]-partStart[dst] of them, h wide, chunked by the same
// ChunkRange split) at their pilot send order rows of ret, a buffer from
// the rank's own arena, releasing each chunk once landed. It also returns
// chunk 0's parts, which carry the exchange's metadata.
func drainReturn(pool *tensor.Pool, xs []simrt.Exchange, partStart []int, h int, numeric bool) (ret *tensor.Tensor, first []simrt.Part) {
	if numeric {
		ret = pool.Get(partStart[len(partStart)-1], h)
	}
	for c, x := range xs {
		back := x.Wait()
		if c == 0 {
			first = back
		}
		if !numeric {
			continue
		}
		for dst, part := range back {
			clo, _ := simrt.ChunkRange(partStart[dst+1]-partStart[dst], len(xs), c)
			copy(ret.Data[(partStart[dst]+clo)*h:], part.Data)
		}
		x.Release()
	}
	return ret, first
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
