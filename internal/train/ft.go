package train

// The fault-tolerant training loop: run steps under a fault.Injector,
// checkpoint on an interval (blocking or asynchronously via CkptStream's
// double buffer), and on a crash roll back to the last *durable*
// checkpoint, resize the cluster — promoting hot spares into the dead
// ranks' slots when the plan provides them, else shrinking to the largest
// expert-divisible world — and continue. Accounting
// follows the goodput convention: wall-clock accumulates everything —
// useful steps, uncovered checkpoint-write remainders, failed partial
// attempts, and replayed steps — while useful time counts each step
// index once, at the cost of the attempt whose result survived. The
// identity wall = useful + ckpt + lost is exact.

import (
	"errors"
	"fmt"
	"sort"

	"xmoe/internal/fault"
	"xmoe/internal/memmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/trace"
)

// FTOptions configures RunFaultTolerant.
type FTOptions struct {
	// Steps is the number of useful training steps to complete.
	Steps int
	// CkptEvery checkpoints after every N useful steps (0 = only the
	// implicit step-0 checkpoint, i.e. restart from scratch on failure).
	CkptEvery int
	// AsyncCkpt streams checkpoint writes off-node concurrently with the
	// following training steps (CkptStream), charging only the uncovered
	// remainder of each write; a crash mid-write falls back to the last
	// snapshot whose write had completed. False selects the blocking
	// stop-the-world write.
	AsyncCkpt bool
	// Plan is the deterministic fault schedule; Plan.Spares sizes the
	// hot-spare pool recovery promotes from.
	Plan fault.Plan
	// CkptCost is the simulated seconds charged per checkpoint write;
	// 0 derives it from the per-rank persisted state bytes over the
	// machine's NIC bandwidth (see DistTrainer.CkptCost).
	CkptCost float64
	// Rec, when non-nil, receives zero-duration marks for faults,
	// checkpoints, and recoveries at their wall-clock positions.
	Rec *trace.Recorder
}

// FTStats reports a fault-tolerant run.
type FTStats struct {
	// Steps is the number of useful steps completed.
	Steps int
	// Recoveries counts rollback/rebuild cycles.
	Recoveries int
	// ReplayedSteps counts steps whose first result was lost to a
	// rollback and had to run again.
	ReplayedSteps int
	// SparesUsed counts hot spares promoted into the world across all
	// recoveries (bounded by Plan.Spares).
	SparesUsed int
	// FinalWorld is the world size at the end (shrinks on crashes,
	// regrows when spares are promoted).
	FinalWorld int
	// FinalLoss is the last useful step's loss.
	FinalLoss float64
	// UsefulTime is the per-step time summed over surviving attempts.
	UsefulTime float64
	// UsefulTokens is the number of tokens processed by the surviving
	// attempts (Tokens x world of each attempt): the throughput a shrunk
	// world loses and a spare-regrown world keeps.
	UsefulTokens int64
	// CkptTime is the total simulated checkpoint time actually charged:
	// full writes in blocking mode, uncovered remainders in async mode,
	// plus restart reads.
	CkptTime float64
	// LostTime is wall-clock spent on work a rollback discarded (failed
	// partial attempts plus every superseded attempt of replayed steps).
	LostTime float64
	// WallClock is the total simulated time including all of the above.
	WallClock float64
	// Goodput is UsefulTime / WallClock.
	Goodput float64
}

// CkptCost returns the simulated checkpoint-write time for the trainer's
// model on its machine. Each rank persists the state it uniquely owns —
// its local expert weights and their full optimizer state, its share of
// the single persisted dense-parameter copy, and its ZeRO shard of the
// dense optimizer state (memmodel.CheckpointBytes, so the cost tracks
// the configured ZeRO stage and momentum) — streamed off-node to stable
// storage. Ranks on distinct nodes write in parallel over their own
// NICs; ranks sharing a node serialise on one NIC, so the charged time
// is the per-node write volume over NIC bandwidth.
func (t *DistTrainer) CkptCost() float64 {
	m := t.Cfg.MoE
	w := t.Cfg.World
	expertElems := int64(m.NumExperts/w) * int64(m.HModel) * int64(m.HFFN) * 2
	optBytes := int64(0)
	if t.Cfg.Momentum != 0 {
		optBytes = 4
	}
	perRank := memmodel.CheckpointBytes(expertElems, int64(m.HModel), w, t.Cfg.ZeROStage, 4, optBytes)
	machine := t.cluster.Machine
	ranksPerNode := min(w, machine.GPUsPerNode)
	return float64(perRank*int64(ranksPerNode)) / machine.NodeNICBandwidth
}

// RunFaultTolerant trains for o.Steps useful steps under o.Plan's faults.
// Crashes trigger recovery: roll back to the last durable checkpoint,
// promote up to Plan.Spares hot spares into the dead slots (regrowing
// toward the original world), shrink to the largest expert-divisible
// world the promoted pool supports otherwise, reshard weights, and
// continue. Non-crash failures are returned as-is. The same options
// against the same trainer configuration produce bit-identical final
// weights and stats — faults, async checkpoints, spare promotions, and
// straggler mitigation included.
func (t *DistTrainer) RunFaultTolerant(o FTOptions) (FTStats, error) {
	if o.Steps < 1 {
		return FTStats{}, fmt.Errorf("train: fault-tolerant run needs steps >= 1, got %d", o.Steps)
	}
	origWorld := t.Cfg.World
	inj := fault.NewInjector(o.Plan, origWorld)
	t.cluster.Inject = inj
	ckptCost := o.CkptCost
	if ckptCost == 0 {
		ckptCost = t.CkptCost()
	}
	sparesLeft := o.Plan.Spares

	st := FTStats{FinalWorld: t.Cfg.World}
	// Per step index: the surviving attempt's wall time and token count.
	// A step rolled back more than once moves each superseded attempt's
	// time into LostTime at replacement, accumulating — never
	// overwriting — so the wall = useful + ckpt + lost identity holds
	// through double crashes of the same step.
	useful := make([]float64, o.Steps)
	tokens := make([]int64, o.Steps)
	var wall float64
	mark := func(name string) {
		if o.Rec != nil {
			o.Rec.Mark(name, wall)
		}
	}
	charge := func(d float64) {
		wall += d
		st.CkptTime += d
	}

	// The stream's durable base is the step-0 state (a pure function of
	// the seed); the first write is issued like every other one.
	cs := NewCkptStream(ckptCost, t.Checkpoint())
	issue := func() {
		ck := t.Checkpoint()
		charge(cs.Issue(ck, wall))
		if !o.AsyncCkpt {
			charge(cs.Drain(wall))
		}
		mark(fmt.Sprintf("ckpt step=%d", ck.Step))
	}
	issue()

	for t.step < o.Steps {
		step := t.step
		inj.Arm(step, wall)
		t.cluster.SetLinkDerate(inj.LinkDerates(step))
		stats, err := t.Step()
		if err == nil {
			wall += stats.WallClock
			if useful[step] > 0 {
				st.LostTime += useful[step] // superseded attempt accumulates into lost
			} else {
				st.Steps++
			}
			useful[step] = stats.WallClock
			tokens[step] = int64(t.Cfg.Tokens) * int64(t.Cfg.World)
			st.FinalLoss = stats.Loss
			if o.CkptEvery > 0 && t.step%o.CkptEvery == 0 && t.step < o.Steps {
				issue()
			}
			continue
		}

		// The failed attempt's partial time is lost work.
		wall += stats.WallClock
		st.LostTime += stats.WallClock
		if !errors.Is(err, simrt.ErrRankCrashed) {
			return st, fmt.Errorf("train: unrecoverable step failure: %w", err)
		}
		crashed := crashedRanks(t.cluster.FailedRanks())
		mark(fmt.Sprintf("fault crash=%v step=%d", crashed, step))
		// Promote hot spares into the dead slots, capped by the pool and
		// the original world, then snap to expert divisibility.
		survivors := t.Cfg.World - len(crashed)
		avail := survivors + sparesLeft
		if avail > origWorld {
			avail = origWorld
		}
		newWorld := ShrinkWorld(t.Cfg.MoE.NumExperts, avail)
		if newWorld < 1 {
			return st, fmt.Errorf("train: no survivors after crash of ranks %v: %w", crashed, err)
		}
		promoted := newWorld - survivors
		if promoted < 0 {
			promoted = 0
		}
		sparesLeft -= promoted
		st.SparesUsed += promoted
		st.Recoveries++
		// Crash consistency: an in-flight async write that had completed
		// by now is durable; one still streaming is discarded and the
		// previous completed snapshot is the rollback target.
		ck := cs.Abort(wall)
		st.ReplayedSteps += step - ck.Step
		if rerr := t.Resize(newWorld); rerr != nil {
			return st, rerr
		}
		if rerr := t.Restore(ck); rerr != nil {
			return st, rerr
		}
		// Restart-from-checkpoint cost: reading the snapshot back is the
		// same traffic as writing it, and it cannot overlap (training is
		// stalled until the weights are resident).
		charge(ckptCost)
		st.FinalWorld = newWorld
		mark(fmt.Sprintf("recover world=%d step=%d spares=%d", newWorld, ck.Step, promoted))
	}
	// The final in-flight write must become durable before the run ends.
	charge(cs.Drain(wall))

	for _, d := range useful {
		st.UsefulTime += d
	}
	for _, n := range tokens {
		st.UsefulTokens += n
	}
	st.WallClock = wall
	st.Goodput = fault.Goodput(st.UsefulTime, wall)
	return st, nil
}

// crashedRanks extracts the ranks that failed with an injected crash (as
// opposed to aborting because a peer failed), sorted for determinism.
func crashedRanks(failed map[int]error) []int {
	var out []int
	for r, err := range failed {
		if errors.Is(err, simrt.ErrRankCrashed) {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}
