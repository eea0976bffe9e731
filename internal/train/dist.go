package train

// The simulated distributed trainer: full expert-parallel training steps
// (forward, mirrored backward, local optimizer update) executed on the
// simrt cluster, with PipelineOpts.OverlapChunks threaded through both
// passes so the entire step runs in chunked comm/compute-overlap mode.
// This is the end-to-end integration of the overlap subsystem — the
// per-layer forward wins (abl-overlap) only matter if the whole training
// step, backward included, keeps them (abl-overlap-bwd, Fig. 11's
// motivation at training time).
//
// Expert weights live on their owning rank (pure expert parallelism), so
// the weight gradients need no synchronisation. The replicated dense
// parameter (bias) is synchronised through the ZeRO path: a bucketed
// asynchronous gradient sync (internal/zero) issued from the backward's
// OnDWReady hook — all-reduce at stages 0/1, reduce-scatter at stage 2 —
// followed by a sharded optimizer step and, at stages 1/2, a parameter
// all-gather. The scalar loss all-reduce is likewise issued non-blocking
// before the backward so it overlaps instead of serialising the step.
// Loss trajectory and updated weights are bit-identical across chunk
// counts, ZeRO stages, and bucket sizes — the determinism guarantee of
// the chunked pipelines composed across passes and optimizer updates.

import (
	"fmt"
	"math"
	"sync"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/trace"
	"xmoe/internal/transport"
	"xmoe/internal/zero"
)

// DistConfig configures the simulated expert-parallel trainer.
type DistConfig struct {
	// MoE is the layer architecture.
	MoE moe.Config
	// World is the expert-parallel group size (one rank per GPU).
	World int
	// Tokens is the per-rank token count per step.
	Tokens int
	// LR is the SGD learning rate for the expert weights.
	LR float64
	// Seed drives weight init, inputs, and routing.
	Seed uint64
	// Transport names the MoE exchange as transport.Parse accepts it: the
	// X-MoE padding-free pipeline, the conventional padded baseline, or
	// X-MoE's hierarchical redundancy-bypassing dispatch.
	Transport string
	// ZeROStage selects dense-parameter state sharding across the world
	// group: 0 replicates gradients and optimizer state (the classic
	// data-parallel step), 1 shards the optimizer state, 2 shards
	// optimizer state and gradients (reduce-scatter sync). Expert weights
	// are rank-local under pure EP and are never sharded here. Final
	// weights are bit-identical across stages and bucket sizes.
	ZeROStage int
	// BucketBytes caps each gradient-sync bucket's wire size; <= 0 syncs
	// the whole dense gradient in one bucket.
	BucketBytes int64
	// Momentum enables SGD momentum (velocity state), the optimizer state
	// that ZeRO stages 1/2 shard; 0 selects plain SGD with no state.
	Momentum float64
	// Mitigation enables straggler-aware expert routing: each step, the
	// previous step's observed per-rank times shift expert capacity away
	// from slow ranks (moe.RebalanceCapacity), clamped to ±Mitigation of
	// the uniform capacity so the loss trajectory stays within tolerance
	// of the unmitigated baseline. 0 disables it; it requires the pft or
	// rbd transport (the padded even all-to-all cannot carry uneven
	// capacities). Observations reset on Restore and elastic
	// rebuilds — the first step after either routes uniformly.
	Mitigation float64
	// Opts configures the pipelines; SaveForBackward is forced on (a
	// training step runs the backward), OverlapChunks and DropPolicy are
	// honoured in both passes. Every pass is numeric, as each is handed
	// its data.
	Opts moe.PipelineOpts
}

// Check validates the trainer configuration.
func (c DistConfig) Check() error {
	_, err := c.check()
	return err
}

// check is Check, returning the parsed transport for NewDistTrainer.
func (c DistConfig) check() (transport.Kind, error) {
	kind, err := transport.Parse(c.Transport)
	if err != nil {
		return 0, fmt.Errorf("train: %w", err)
	}
	if c.World < 1 || c.Tokens < 1 {
		return 0, fmt.Errorf("train: world %d / tokens %d must be positive", c.World, c.Tokens)
	}
	if c.MoE.NumExperts%c.World != 0 {
		return 0, fmt.Errorf("train: %d experts not divisible by world %d", c.MoE.NumExperts, c.World)
	}
	if c.ZeROStage < 0 || c.ZeROStage > 2 {
		return 0, fmt.Errorf("train: ZeRO stage %d not in [0,2]", c.ZeROStage)
	}
	if c.BucketBytes < 0 {
		return 0, fmt.Errorf("train: bucket bytes %d must be >= 0", c.BucketBytes)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return 0, fmt.Errorf("train: momentum %g not in [0,1)", c.Momentum)
	}
	if c.Mitigation < 0 || c.Mitigation > 1 {
		return 0, fmt.Errorf("train: mitigation bound %g not in [0,1]", c.Mitigation)
	}
	// The transport answers what it can run — here, before a cluster
	// exists, instead of as a rank panic mid-step. A mitigated trainer
	// routes by a rebalanced capacity vector from its second step on, so
	// the question is asked with one.
	opts := c.Opts
	if c.Mitigation > 0 && opts.CapacityByExpert == nil && c.MoE.NumExperts > 0 {
		opts.CapacityByExpert = make([]int, c.MoE.NumExperts)
		for e := range opts.CapacityByExpert {
			opts.CapacityByExpert[e] = c.MoE.Capacity(c.Tokens)
		}
	}
	if err := kind.Check(c.MoE, opts); err != nil {
		return 0, fmt.Errorf("train: transport %v: %w", kind, err)
	}
	return kind, nil
}

// DistTrainer runs simulated distributed training steps.
type DistTrainer struct {
	Cfg     DistConfig
	kind    transport.Kind // Cfg.Transport, parsed by Check
	cluster *simrt.Cluster
	group   *simrt.Group
	// layer is the MoE layer over the world group; rebuilt alongside the
	// cluster on Resize.
	layer  *transport.Layer
	params []*moe.ExpertParams // per rank, local experts
	// bias is the replicated dense parameter ([H] per rank, kept
	// bit-identical across ranks by an all-reduced gradient): the smallest
	// realistic stand-in for a model's non-expert weights, so checkpoints
	// cover both sharded and replicated state.
	bias [][]float32
	// dataRNG holds each rank slot's persistent input stream. Unlike a
	// per-step derived seed, a persistent stream makes RNG state part of
	// the training state — exactly what checkpoint/restore must capture
	// for a resumed run to be bit-identical to an uninterrupted one.
	dataRNG []*tensor.RNG
	step    int
	// zcfg is the gradient-sync/sharding geometry derived from the
	// config; owned[m] is member m's owned element ranges of the dense
	// gradient stream (the full [0,H) for every rank at stage 0).
	zcfg  zero.Config
	owned [][]zero.Range
	// Momentum (velocity) state, nil when Cfg.Momentum == 0. Expert
	// velocity is rank-local like the expert weights; bias velocity is
	// full-length at stage 0 and only this rank's owned elements at
	// stages 1/2 (the state ZeRO shards).
	velW1, velW2 [][]*tensor.Tensor
	biasVel      [][]float32
	// lastClocks holds the previous successful step's per-rank observed
	// times — the straggler signal Cfg.Mitigation rebalances expert
	// capacity on. Deliberately NOT part of the checkpoint: it is an
	// observation of the machine, not training state, and it is reset on
	// Restore and on elastic rebuilds so the first step after either
	// routes uniformly and re-learns.
	lastClocks []float64
}

// DistStepStats reports one simulated training step.
type DistStepStats struct {
	// Loss is the global mean-squared-error loss (all-reduced).
	Loss float64
	// WallClock is the simulated step time (slowest rank).
	WallClock float64
	// Breakdown is the per-stage charged time averaged over ranks; its
	// values sum to the average rank wall-clock even in overlap mode
	// (in-flight spans are recorded separately).
	Breakdown map[string]float64
	// CommInFlight is the total physical duration of the non-blocking
	// collectives, averaged over ranks (zero in blocking mode).
	CommInFlight float64
	// MaxImbalance is the largest |charged-span sum − clock| over ranks:
	// zero (to float rounding) when every clock advance was recorded, the
	// invariant that keeps per-stage breakdowns summing to wall-clock
	// even in overlap mode.
	MaxImbalance float64
	// Dropped counts token assignments removed by the drop policy.
	Dropped int
}

// NewDistTrainer initialises the cluster and each rank's expert weights.
func NewDistTrainer(cfg DistConfig) (*DistTrainer, error) {
	kind, err := cfg.check()
	if err != nil {
		return nil, err
	}
	cfg.Opts.SaveForBackward = true
	t := &DistTrainer{Cfg: cfg, kind: kind}
	t.build(cfg.World)
	return t, nil
}

// build constructs everything that depends on the world size: a fresh
// Frontier cluster and world group, the transport layer over it, and
// per-rank containers seeded by slot — weights-init and data-stream seeds
// are functions of the slot alone, which is what keeps a shrunk or
// regrown run bit-deterministic.
func (t *DistTrainer) build(world int) {
	t.Cfg.World = world
	cfg := t.Cfg
	t.cluster = simrt.NewCluster(topology.Frontier(), world, cfg.Seed)
	t.cluster.Net.DisableCongestion = true
	t.group = t.cluster.WorldGroup()
	t.layer = transport.New(t.kind, t.cluster, t.group, cfg.MoE)
	t.params = make([]*moe.ExpertParams, world)
	t.bias = make([][]float32, world)
	t.dataRNG = make([]*tensor.RNG, world)
	epr := cfg.MoE.NumExperts / world
	for rank := 0; rank < world; rank++ {
		t.params[rank] = moe.NewExpertParams(tensor.NewRNG(cfg.Seed+uint64(rank)*131),
			epr, cfg.MoE.HModel, cfg.MoE.HFFN)
		t.bias[rank] = make([]float32, cfg.MoE.HModel)
		t.dataRNG[rank] = tensor.NewRNG(dataSeed(cfg.Seed, rank))
	}
	t.initShardState()
}

// initShardState derives the gradient-sync geometry and (re)allocates
// the sharded optimizer state for the current world size. Called from
// build; Restore refills the velocity values.
func (t *DistTrainer) initShardState() {
	cfg := t.Cfg
	h := cfg.MoE.HModel
	epr := cfg.MoE.NumExperts / cfg.World
	t.zcfg = zero.Config{Stage: cfg.ZeROStage, BucketBytes: cfg.BucketBytes}
	t.owned = zero.OwnedPartition(t.zcfg, cfg.World, []int{h}, 4)
	t.velW1, t.velW2, t.biasVel = nil, nil, nil
	if cfg.Momentum == 0 {
		return
	}
	t.velW1 = make([][]*tensor.Tensor, cfg.World)
	t.velW2 = make([][]*tensor.Tensor, cfg.World)
	t.biasVel = make([][]float32, cfg.World)
	for rank := 0; rank < cfg.World; rank++ {
		t.velW1[rank] = make([]*tensor.Tensor, epr)
		t.velW2[rank] = make([]*tensor.Tensor, epr)
		for le := 0; le < epr; le++ {
			t.velW1[rank][le] = tensor.New(h, cfg.MoE.HFFN)
			t.velW2[rank][le] = tensor.New(cfg.MoE.HFFN, h)
		}
		t.biasVel[rank] = make([]float32, zero.OwnedCount(t.owned[rank]))
	}
}

// dataSeed derives rank slot r's input-stream seed. Streams belong to the
// slot, not the step: a rank surviving an elastic shrink keeps its stream.
func dataSeed(seed uint64, rank int) uint64 {
	return seed ^ (uint64(rank)*2654435761 + 0x9e3779b9)
}

// Step runs one training step on every rank: forward (with state
// capture), MSE loss against a deterministic target, mirrored backward,
// and a local SGD update of the expert weights.
func (t *DistTrainer) Step() (DistStepStats, error) {
	cfg := t.Cfg
	s, h := cfg.Tokens, cfg.MoE.HModel
	t.step++

	// Straggler mitigation: rebalance expert capacity from the previous
	// step's observed per-rank times. The vector is computed once here,
	// before the SPMD bodies launch, so every rank routes from the same
	// deterministic capacities; nil (no observations yet, or all ranks
	// equally fast) keeps uniform routing.
	fwdOpts := cfg.Opts
	if cfg.Mitigation > 0 {
		if caps := moe.RebalanceCapacity(cfg.MoE, s, cfg.World, t.lastClocks, cfg.Mitigation); caps != nil {
			fwdOpts.CapacityByExpert = caps
		}
	}

	var mu sync.Mutex
	stats := DistStepStats{}
	recs := make([]*trace.Recorder, cfg.World)
	ranks, err := t.cluster.RunCollect(func(r *simrt.Rank) error {
		idx := t.group.IndexOf(r.ID)
		// Deterministic per-rank input streams, consumed identically by
		// every transport and chunk count, so chunked and blocking runs
		// see identical data. The step's rank-local tensors come from the
		// rank's arena and go back once read.
		rng, pool := t.dataRNG[idx], r.Pool()
		x, target := pool.Get(s, h), pool.Get(s, h)
		tensor.RandnInto(x, rng, 0.5)
		tensor.RandnInto(target, rng, 0.5)
		routing := moe.SyntheticRouting(rng, s, cfg.MoE.NumExperts, cfg.MoE.TopK, 0.6)
		params := t.params[idx]
		bias := t.bias[idx]

		// The pilot draws (RBD) come from the slot's persistent data stream,
		// so pilot selection is part of the checkpointed training state: a
		// restored run replays the identical pilots with no extra fields.
		res := t.layer.Forward(r, s, x, routing, params, rng, fwdOpts)
		out, dropped := res.Output, res.Dropped

		// MSE loss (over the biased output) and its gradient.
		var localLoss float64
		dOut := pool.Get(s, h)
		inv := float32(2 / float64(s*h))
		for i, v := range out.Data {
			d := v + bias[i%h] - target.Data[i]
			localLoss += float64(d) * float64(d)
			dOut.Data[i] = d * inv
		}
		localLoss /= float64(s * h)
		// Lifetime: the layer gathered x into its dispatch buffer and the
		// loss was the last reader of target and of the output.
		pool.PutAll(x, target, out)

		// The bias gradient is known before the backward runs (it is
		// dOut's column sum), so the dense sync can ride the backward:
		// the scalar loss all-reduce is issued non-blocking here, and the
		// bucketed gradient sync is issued from the backward's OnDWReady
		// hook — both overlap the backward compute instead of serialising
		// after it. Expert weights are rank-local under pure EP, so the
		// expert gradients need no synchronisation.
		gradBias := make([]float32, h)
		for i, g := range dOut.Data {
			gradBias[i%h] += g
		}
		lossH := r.AllReduceAsync(t.group, "loss_allreduce", []float32{float32(localLoss)}, 4)
		syncer := zero.NewSyncer(r, t.group, "grad_sync", t.zcfg)
		bopts := fwdOpts
		bopts.OnDWReady = func() {
			syncer.Add(gradBias, int64(4*h))
			syncer.Flush()
		}

		grads := res.State.Backward(r, dOut, params, bopts)
		// Lifetime: the backward has copied dOut into its own buffers, and
		// nothing here reads dX.
		pool.PutAll(dOut, grads.DX)

		shards := syncer.Wait()
		lossSum := lossH.Wait()[0].Data

		// Local SGD on the expert weights (with optional rank-local
		// momentum), sharded SGD on the bias: each rank steps the dense
		// elements it owns — everything at stage 0, its ZeRO shard at
		// stages 1/2 — applying the identical reduced gradient, so the
		// dense parameter stays bit-identical across ranks and stages.
		lr := float32(cfg.LR)
		mom := float32(cfg.Momentum)
		for le := range params.W1 {
			if t.velW1 != nil {
				vel1, vel2 := t.velW1[idx][le], t.velW2[idx][le]
				for j, g := range grads.DW1[le].Data {
					v := mom*vel1.Data[j] + g
					vel1.Data[j] = v
					params.W1[le].Data[j] -= lr * v
				}
				for j, g := range grads.DW2[le].Data {
					v := mom*vel2.Data[j] + g
					vel2.Data[j] = v
					params.W2[le].Data[j] -= lr * v
				}
			} else {
				for j, g := range grads.DW1[le].Data {
					params.W1[le].Data[j] -= lr * g
				}
				for j, g := range grads.DW2[le].Data {
					params.W2[le].Data[j] -= lr * g
				}
			}
		}
		// Lifetime: the update above was the weight gradients' last reader.
		pool.PutAll(grads.DW1...)
		pool.PutAll(grads.DW2...)
		invW := float32(1 / float64(cfg.World))
		var bvel []float32
		if t.biasVel != nil {
			bvel = t.biasVel[idx]
		}
		velOff := 0
		for _, sh := range shards {
			for i, gj := range sh.Data {
				j := sh.Lo + i
				if bvel != nil {
					v := mom*bvel[velOff] + gj*invW
					bvel[velOff] = v
					bias[j] -= lr * v
				} else {
					bias[j] -= lr * gj * invW
				}
				velOff++
			}
		}
		if t.zcfg.Stage >= 1 {
			t.gatherBias(r, idx, bias)
		}

		mu.Lock()
		stats.Loss = float64(lossSum[0]) / float64(cfg.World)
		stats.Dropped += dropped
		recs[idx] = r.Trace
		mu.Unlock()
		return nil
	})
	// Per-rank compute times, read after the Run joins. Final clocks are
	// equalised by the BSP rendezvous, but Busy keeps per-rank skew: the
	// world group is the rank-ID order, so busy[i] is rank slot i's
	// observed compute time — the mitigation's straggler signal.
	busy := simrt.BusyTimes(ranks)
	if err != nil {
		return DistStepStats{WallClock: simrt.MaxClock(ranks)}, err
	}
	stats.WallClock = simrt.MaxClock(ranks)
	t.lastClocks = busy
	stats.Breakdown = trace.Merge(recs, true)
	for i, rec := range recs {
		var inFlight float64
		for _, d := range rec.OverlapBreakdown() {
			inFlight += d
		}
		stats.CommInFlight += inFlight / float64(len(recs))
		if im := math.Abs(rec.ChargedTotal() - ranks[i].Clock); im > stats.MaxImbalance {
			stats.MaxImbalance = im
		}
	}
	return stats, nil
}

// gatherBias is the ZeRO all-gather of the dense parameter: owners publish
// their updated shards, and every rank reassembles the full bias from the
// gathered parts. The send buffer is lent from the rank's arena; every
// member releases the parts once it has copied them.
func (t *DistTrainer) gatherBias(r *simrt.Rank, idx int, bias []float32) {
	owned := r.Lend(zero.OwnedCount(t.owned[idx]))
	off := 0
	for _, rg := range t.owned[idx] {
		off += copy(owned.Data[off:], bias[rg.Lo:rg.Hi])
	}
	x := r.AllGather(t.group, "param_allgather",
		simrt.Part{Data: owned.Data, Bytes: int64(4 * len(owned.Data))}, owned)
	owned.Done()
	for m, p := range x.Wait() {
		off := 0
		for _, rg := range t.owned[m] {
			copy(bias[rg.Lo:rg.Hi], p.Data[off:off+rg.Len()])
			off += rg.Len()
		}
	}
	x.Release()
}
