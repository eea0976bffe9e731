// Package parallel implements X-MoE's hybrid parallelism planning (paper
// §4.3 and Appendix C): construction of tensor-parallel (TP),
// data-parallel (DP), expert-parallel (EP) and expert-data-parallel
// process groups over a machine; EP-first vs DP-first placement (App.
// C.1); and Sequence-Sharded MoE Blocks (SSMB), which shard the MoE
// block's input sequence across the TP ranks to attack the activation
// memory bottleneck that TP and ZeRO-DP cannot reduce.
package parallel

import (
	"fmt"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Placement selects how EP and expert-DP groups map onto physical ranks
// (Appendix C.1).
type Placement int

const (
	// EPFirst packs each EP group onto consecutive ranks (locality-aware
	// EP: experts co-located, replicas spread across nodes). This is the
	// DeepSpeed-MoE default.
	EPFirst Placement = iota
	// DPFirst strides EP groups across the machine so that all replicas
	// of an expert are co-located (replica-aware DP: gradient sync stays
	// intra-node). X-MoE favours this for large MoEs on Frontier.
	DPFirst
)

// String names the placement.
func (p Placement) String() string {
	if p == DPFirst {
		return "dp-first"
	}
	return "ep-first"
}

// Plan describes a hybrid parallel layout over World ranks: dense blocks
// run TP x DP; MoE blocks run EP with experts replicated World/EP times.
type Plan struct {
	// World is the total rank count.
	World int
	// TP is the tensor-parallel degree of dense (non-MoE) blocks.
	TP int
	// EP is the expert-parallel group size.
	EP int
	// Placement selects EP-first or DP-first rank assignment for the
	// MoE groups.
	Placement Placement
	// SSMB enables sequence-sharded MoE blocks: the MoE block processes
	// 1/TP of the sequence per rank and all-gathers afterwards.
	SSMB bool
	// ZeROStage is the optimizer-state sharding stage (1 or 2).
	ZeROStage int
}

// DP returns the dense data-parallel degree World/TP.
func (p Plan) DP() int { return p.World / p.TP }

// ExpertDP returns the expert replication degree World/EP.
func (p Plan) ExpertDP() int { return p.World / p.EP }

// Validate checks the plan's divisibility requirements.
func (p Plan) Validate() error {
	switch {
	case p.World <= 0:
		return fmt.Errorf("parallel: world %d", p.World)
	case p.TP <= 0 || p.World%p.TP != 0:
		return fmt.Errorf("parallel: TP %d does not divide world %d", p.TP, p.World)
	case p.EP <= 0 || p.World%p.EP != 0:
		return fmt.Errorf("parallel: EP %d does not divide world %d", p.EP, p.World)
	case p.ZeROStage < 0 || p.ZeROStage > 2:
		return fmt.Errorf("parallel: ZeRO stage %d unsupported", p.ZeROStage)
	case p.SSMB && p.TP < 1:
		return fmt.Errorf("parallel: SSMB requires TP >= 1")
	}
	return nil
}

// TPGroups returns the tensor-parallel groups: consecutive blocks of TP
// ranks (standard Megatron layout keeps TP groups within a node).
func (p Plan) TPGroups() [][]int {
	return consecutiveGroups(p.World, p.TP)
}

// DPGroups returns the dense data-parallel groups: ranks at the same TP
// position across TP groups.
func (p Plan) DPGroups() [][]int {
	return stridedGroups(p.World, p.DP(), p.TP)
}

// EPGroups returns the expert-parallel groups under the plan's placement.
func (p Plan) EPGroups() [][]int {
	if p.Placement == DPFirst {
		return stridedGroups(p.World, p.EP, p.ExpertDP())
	}
	return consecutiveGroups(p.World, p.EP)
}

// ExpertDPGroups returns the expert-data-parallel groups (ranks holding
// replicas of the same experts), the communicator for expert gradient
// synchronisation.
func (p Plan) ExpertDPGroups() [][]int {
	if p.Placement == DPFirst {
		return consecutiveGroups(p.World, p.ExpertDP())
	}
	return stridedGroups(p.World, p.ExpertDP(), p.EP)
}

// consecutiveGroups partitions [0,world) into world/size blocks of
// consecutive ranks.
func consecutiveGroups(world, size int) [][]int {
	n := world / size
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		g := make([]int, size)
		for j := range g {
			g[j] = i*size + j
		}
		out[i] = g
	}
	return out
}

// stridedGroups partitions [0,world) into groups of the given size whose
// members are stride apart: group i = {i, i+stride, i+2*stride, ...}.
func stridedGroups(world, size, stride int) [][]int {
	n := world / size
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		g := make([]int, size)
		for j := range g {
			g[j] = i + j*stride
		}
		out[i] = g
	}
	return out
}

// SSMBForward wraps an MoE-block body with sequence sharding: rank r
// (member of tpGroup, which duplicates the s-token input x across its TP
// ranks) drops to its shard (simrt.ShardRange of the s tokens: remainder
// tokens go to the leading members), runs inner on the shard, and
// all-gathers the shard outputs back into the full [s, h] sequence (paper
// Fig. 8 steps 1-3). In symbolic mode x and the inner result may be nil;
// the all-gather still charges the modeled time.
func SSMBForward(r *simrt.Rank, tpGroup *simrt.Group, s, h, elemBytes int,
	x *tensor.Tensor, inner func(shardLo, shardHi int, shard *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {

	lo, hi := simrt.ShardRange(s, tpGroup.Size(), tpGroup.IndexOf(r.ID))

	var shard *tensor.Tensor
	if x != nil {
		shard = tensor.FromSlice(x.Data[lo*h:hi*h], hi-lo, h)
	}
	out := inner(lo, hi, shard)

	part := simrt.Part{Bytes: int64(hi-lo) * int64(h) * int64(elemBytes)}
	if out != nil {
		part.Data = out.Data
	}
	parts := r.AllGather(tpGroup, "ssmb_allgather", part)

	if x == nil {
		return nil
	}
	full := tensor.New(s, h)
	off := 0
	for _, p := range parts {
		copy(full.Data[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
	return full
}

// SSMBBackward reverses SSMBForward (paper Fig. 8, backward pass): it
// drops the full output gradient to this rank's retained shard, runs the
// MoE block's backward on the shard (inner returns the shard's input
// gradient), and all-gathers the shard gradients to reconstruct the full
// input gradient expected by the preceding TP block.
func SSMBBackward(r *simrt.Rank, tpGroup *simrt.Group, s, h, elemBytes int,
	dFull *tensor.Tensor, inner func(shardLo, shardHi int, dShard *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {

	lo, hi := simrt.ShardRange(s, tpGroup.Size(), tpGroup.IndexOf(r.ID))

	var dShard *tensor.Tensor
	if dFull != nil {
		dShard = tensor.FromSlice(dFull.Data[lo*h:hi*h], hi-lo, h)
	}
	dIn := inner(lo, hi, dShard)

	part := simrt.Part{Bytes: int64(hi-lo) * int64(h) * int64(elemBytes)}
	if dIn != nil {
		part.Data = dIn.Data
	}
	parts := r.AllGather(tpGroup, "ssmb_bwd_allgather", part)

	if dFull == nil {
		return nil
	}
	full := tensor.New(s, h)
	off := 0
	for _, p := range parts {
		copy(full.Data[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
	return full
}
