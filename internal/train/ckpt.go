package train

// Checkpoint/restore for the distributed trainer. A checkpoint is a full
// snapshot of training state — expert weights in global expert order,
// the replicated dense bias, the step counter, every rank slot's data-RNG
// state and the momentum state — so a restored run is bit-identical to
// one that never stopped. The network simulator holds no state to save:
// the trainer prices its collectives with congestion sampling off.
// Weights are stored globally (not per-rank) so the same checkpoint
// restores onto a different world size: elastic recovery reshards the
// surviving experts instead of demanding the dead rank back.

import (
	"fmt"

	"xmoe/internal/tensor"
)

// Checkpoint is a deep snapshot of DistTrainer state.
type Checkpoint struct {
	// Step is the number of completed training steps.
	Step int
	// W1, W2 hold every expert's weights in global expert order
	// (global expert e = rank*expertsPerRank + local index).
	W1, W2 []*tensor.Tensor
	// Bias is the replicated dense parameter (identical on every rank).
	Bias []float32
	// DataRNG holds each rank slot's input-stream state at capture time.
	DataRNG []tensor.RNGState
	// VelW1, VelW2 hold the expert momentum state in global expert order
	// and BiasVel the full dense velocity vector (reassembled from the
	// per-rank ZeRO shards at capture). All nil when the trainer runs
	// without momentum; Restore reshards them onto the current world and
	// ZeRO geometry, so a checkpoint taken at one stage/bucket size
	// restores onto any other.
	VelW1, VelW2 []*tensor.Tensor
	BiasVel      []float32
}

// Checkpoint captures the trainer's full training state. Call it only
// between steps (never while Step is running).
func (t *DistTrainer) Checkpoint() *Checkpoint {
	e := t.Cfg.MoE.NumExperts
	epr := e / t.Cfg.World
	ck := &Checkpoint{
		Step:    t.step,
		W1:      make([]*tensor.Tensor, e),
		W2:      make([]*tensor.Tensor, e),
		Bias:    append([]float32(nil), t.bias[0]...),
		DataRNG: make([]tensor.RNGState, t.Cfg.World),
	}
	for rank := 0; rank < t.Cfg.World; rank++ {
		for le := 0; le < epr; le++ {
			ck.W1[rank*epr+le] = t.params[rank].W1[le].Clone()
			ck.W2[rank*epr+le] = t.params[rank].W2[le].Clone()
		}
		ck.DataRNG[rank] = t.dataRNG[rank].State()
	}
	if t.velW1 != nil {
		ck.VelW1 = make([]*tensor.Tensor, e)
		ck.VelW2 = make([]*tensor.Tensor, e)
		ck.BiasVel = make([]float32, t.Cfg.MoE.HModel)
		for rank := 0; rank < t.Cfg.World; rank++ {
			for le := 0; le < epr; le++ {
				ck.VelW1[rank*epr+le] = t.velW1[rank][le].Clone()
				ck.VelW2[rank*epr+le] = t.velW2[rank][le].Clone()
			}
			// Owners hold the authoritative dense velocity shards; scatter
			// them back to global positions (stage 0: every rank holds the
			// identical full vector, rank 0's copy wins harmlessly).
			off := 0
			for _, rg := range t.owned[rank] {
				copy(ck.BiasVel[rg.Lo:rg.Hi], t.biasVel[rank][off:off+rg.Len()])
				off += rg.Len()
			}
		}
	}
	return ck
}

// Restore rolls the trainer back to ck, resharding the global expert
// weights onto the trainer's current world size. The world may be smaller
// than at capture time (elastic recovery after a Resize): surviving rank
// slots keep their data streams, and slots beyond the new world are
// simply retired with their state still in the checkpoint. The world may
// also be larger (hot-spare regrow after a Resize): slots the checkpoint
// covers resume their captured streams, and slots beyond the capture —
// spares promoted into a world wider than the snapshot's — restart their
// streams from the slot seed, the same deterministic dataSeed(seed, slot)
// a fresh trainer would give them. Streams belong to slots either way,
// so the same checkpoint + world transition always replays identically.
// Straggler observations (the mitigation's capacity-rebalance input) are
// reset: the first restored step routes uniformly and re-learns.
func (t *DistTrainer) Restore(ck *Checkpoint) error {
	e := t.Cfg.MoE.NumExperts
	if len(ck.W1) != e || len(ck.W2) != e {
		return fmt.Errorf("train: checkpoint holds %d experts, trainer wants %d", len(ck.W1), e)
	}
	if t.velW1 != nil && ck.VelW1 != nil && len(ck.VelW1) != e {
		return fmt.Errorf("train: checkpoint holds %d expert velocities, trainer wants %d", len(ck.VelW1), e)
	}
	epr := e / t.Cfg.World
	for rank := 0; rank < t.Cfg.World; rank++ {
		for le := 0; le < epr; le++ {
			t.params[rank].W1[le].Copy(ck.W1[rank*epr+le])
			t.params[rank].W2[le].Copy(ck.W2[rank*epr+le])
		}
		copy(t.bias[rank], ck.Bias)
		if rank < len(ck.DataRNG) {
			t.dataRNG[rank].SetState(ck.DataRNG[rank])
		} else {
			t.dataRNG[rank] = tensor.NewRNG(dataSeed(t.Cfg.Seed, rank))
		}
	}
	t.lastClocks = nil
	if t.velW1 != nil {
		// Reshard the momentum state onto the current world and ZeRO
		// geometry; a checkpoint without velocity restores to zeros (a
		// cold optimizer, matching a freshly built trainer).
		for rank := 0; rank < t.Cfg.World; rank++ {
			for le := 0; le < epr; le++ {
				if ck.VelW1 != nil {
					t.velW1[rank][le].Copy(ck.VelW1[rank*epr+le])
					t.velW2[rank][le].Copy(ck.VelW2[rank*epr+le])
				} else {
					t.velW1[rank][le].Zero()
					t.velW2[rank][le].Zero()
				}
			}
			bv := t.biasVel[rank]
			for i := range bv {
				bv[i] = 0
			}
			if ck.BiasVel != nil {
				off := 0
				for _, rg := range t.owned[rank] {
					copy(bv[off:off+rg.Len()], ck.BiasVel[rg.Lo:rg.Hi])
					off += rg.Len()
				}
			}
		}
	}
	t.step = ck.Step
	return nil
}

// Resize rebuilds the trainer for a world of newWorld ranks, smaller,
// equal (a same-size rebuild after a crash with full replacement) or
// larger (hot spares promoted into dead ranks' slots): build's fresh
// cluster (a failed Run poisons the old one), layer and per-slot state,
// with the fault injector carried over. Straggler observations are
// dropped — they described the old world. Slot r's weights-init and
// data-stream seeds are functions of r alone, and expert weights reshard
// from the checkpoint's global order, so a rank promoted into slot r is
// indistinguishable from a replacement node and the resized run stays
// bit-deterministic. It does NOT restore weights — callers follow up with
// Restore to reshard a checkpoint onto the new layout.
func (t *DistTrainer) Resize(newWorld int) error {
	if newWorld < 1 || t.Cfg.MoE.NumExperts%newWorld != 0 {
		return fmt.Errorf("train: cannot resize world %d to %d: %d experts need a positive divisor",
			t.Cfg.World, newWorld, t.Cfg.MoE.NumExperts)
	}
	inject := t.cluster.Inject
	t.build(newWorld)
	t.cluster.Inject = inject
	t.lastClocks = nil
	return nil
}

// ShrinkWorld returns the largest feasible world size after failures: the
// biggest divisor of experts that is at most survivors (0 if none).
func ShrinkWorld(experts, survivors int) int {
	for w := survivors; w >= 1; w-- {
		if experts%w == 0 {
			return w
		}
	}
	return 0
}

// CkptStream models asynchronous checkpointing as a double buffer plus
// one in-flight off-node write, with the same accounting convention as
// the CommHandle overlap machinery (simrt.AlltoAllVAsync): issuing a
// write snapshots the state and costs nothing up front; the write
// completes Cost simulated seconds later on its own stream, and training
// only pays the *uncovered remainder* — the part of the write the
// subsequent steps' wall-clock did not hide. The consistency rule is the
// one real async checkpointers enforce: a crash mid-write discards the
// partial file and recovery falls back to the last snapshot whose write
// had fully completed by the crash time. Blocking checkpointing is the
// degenerate schedule Issue-then-Drain (the whole write is uncovered),
// which reproduces the stop-the-world accounting exactly.
//
// All times are positions on the fault-tolerant loop's wall clock; the
// stream itself is pure accounting and holds at most two snapshots
// (completed + in-flight), the double buffer.
type CkptStream struct {
	// Cost is the seconds one snapshot takes to stream off-node.
	Cost float64

	completed  *Checkpoint // last fully durable snapshot
	pending    *Checkpoint // in-flight write, nil when idle
	pendingEnd float64     // wall time the in-flight write completes
}

// NewCkptStream starts a stream whose durable base is `initial` — for a
// training run, the step-0 state, durable by construction (it is a pure
// function of the seed). Writes issued later supersede it only once they
// complete.
func NewCkptStream(cost float64, initial *Checkpoint) *CkptStream {
	return &CkptStream{Cost: cost, completed: initial}
}

// advance promotes the in-flight write if the wall clock has passed its
// completion time: the write finished under cover of training compute,
// at zero charged cost.
func (cs *CkptStream) advance(wall float64) {
	if cs.pending != nil && wall >= cs.pendingEnd {
		cs.completed = cs.pending
		cs.pending = nil
	}
}

// Issue starts an asynchronous write of ck at the given wall time and
// returns the seconds to charge now: zero when the stream is idle, else
// the uncovered remainder of the previous write (back-to-back issues
// serialise on the single off-node stream, exactly like two async
// collectives on one comm stream).
func (cs *CkptStream) Issue(ck *Checkpoint, wall float64) (charged float64) {
	cs.advance(wall)
	if cs.pending != nil {
		charged = cs.pendingEnd - wall
		cs.completed = cs.pending
	}
	cs.pending = ck
	cs.pendingEnd = wall + charged + cs.Cost
	return charged
}

// Drain blocks until the in-flight write (if any) is durable, returning
// the uncovered remainder to charge. Issue+Drain is blocking
// checkpointing; a final Drain at the end of a run makes the last
// snapshot durable before the wall clock stops.
func (cs *CkptStream) Drain(wall float64) (charged float64) {
	cs.advance(wall)
	if cs.pending != nil {
		charged = cs.pendingEnd - wall
		cs.completed = cs.pending
		cs.pending = nil
	}
	return charged
}

// Abort applies the crash consistency rule at the given wall time: an
// in-flight write that had already completed is promoted (the file was
// durable before the crash); one still in flight is discarded — its
// partial file is useless — and recovery falls back to the last
// completed snapshot, which Abort returns.
func (cs *CkptStream) Abort(wall float64) *Checkpoint {
	cs.advance(wall)
	cs.pending = nil
	return cs.completed
}
