package baselines

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xmoe/internal/memmodel"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/netsim"
	"xmoe/internal/parallel"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/trace"
	"xmoe/internal/transport"
	"xmoe/internal/zero"
)

// RunSpec describes one training-throughput measurement point.
type RunSpec struct {
	// Shape is the model architecture.
	Shape model.Shape
	// Machine is the platform (Frontier or DGX-A100).
	Machine *topology.Machine
	// World is the GPU count.
	World int
	// Plan is the hybrid parallel layout.
	Plan parallel.Plan
	// MicroBatch is the per-GPU micro-batch in sequences.
	MicroBatch int
	// GlobalBatch is the global batch in sequences.
	GlobalBatch int
	// Seed drives routing and congestion sampling.
	Seed uint64
	// Congestion enables the cross-rack outlier model (Appendix D).
	Congestion bool
	// ActCkpt enables activation checkpointing (Fig. 14's alternative).
	ActCkpt bool
	// SkipMemCheck simulates timing even when the full model would not
	// fit device memory — used by layer-level microbenchmarks (Fig. 11)
	// that the paper measures in isolation.
	SkipMemCheck bool
	// BlockingGradSync disables the bucketed overlapped gradient sync
	// and charges the classic blocking tail synchronisation after the
	// last micro-step instead — the baseline the abl-zero ablation
	// measures the overlap win against.
	BlockingGradSync bool
	// BucketBytes caps each gradient-sync bucket's wire size in the
	// overlapped path; <= 0 syncs each layer's family gradient in one
	// bucket.
	BucketBytes int64
}

// memOverheadBytes is the fixed framework overhead per GPU (runtime
// context, RCCL buffers, workspace) and memFragmentation the allocator
// slack factor — shared by all systems.
const (
	memOverheadBytes = int64(2) << 30
	memFragmentation = 1.05
)

// peakMem projects one GPU's memory for sys under plan at micro-batch mb,
// with activation checkpointing when actCkpt: the model states and the
// activations, times the allocator slack, plus the fixed overhead. It
// returns the states and activations too.
func peakMem(sys Config, shape model.Shape, plan parallel.Plan, mb int, actCkpt bool) (peak, states, acts int64) {
	setup := sys.MemSetup(plan, mb)
	setup.ActCkpt = actCkpt
	states, acts = memmodel.ModelStates(shape, setup), memmodel.Activations(shape, setup)
	return int64(float64(states+acts)*memFragmentation) + memOverheadBytes, states, acts
}

// StepResult reports one simulated training iteration.
type StepResult struct {
	// OOM indicates the configuration does not fit device memory.
	OOM bool
	// PeakMemGB is the projected per-GPU memory (states + activations +
	// overhead), in GiB.
	PeakMemGB float64
	// StatesGB and ActsGB break the projection down.
	StatesGB, ActsGB float64
	// IterSeconds is the simulated time of one optimizer iteration.
	IterSeconds float64
	// TFLOPsPerGPU is achieved model FLOPs per GPU (the paper's
	// throughput metric).
	TFLOPsPerGPU float64
	// AggPFLOPs is the aggregate PFLOP/s across all GPUs.
	AggPFLOPs float64
	// MicroSteps is the gradient-accumulation depth.
	MicroSteps int
	// LayerForward is the average per-rank forward time of one MoE
	// transformer layer, by pipeline stage (Fig. 11's quantity).
	LayerForward map[string]float64
	// Err records configuration errors (invalid plans).
	Err error
}

// SimulateStep estimates one training iteration of the given system and
// spec: the memory-model OOM verdict, a one-layer SPMD simulation of the
// forward AND backward passes (the system's transport.Layer, symbolic, with
// bucketed, overlapped ZeRO gradient sync), scaled to the full depth,
// gradient accumulation, and the end-of-iteration synchronisation tails.
// At TP = 1 that one run also prices the sync-free accumulation
// micro-steps; at TP > 1 they take a second run (see simulateTiming).
// Consecutive calls at one seed, expert count and top-k reuse each rank's
// routing draw instead of redrawing it (see routingStore); the result is
// the same bit for bit.
func SimulateStep(sys Config, spec RunSpec) StepResult {
	if spec.World != spec.Plan.World {
		return StepResult{Err: fmt.Errorf("RunSpec.World %d differs from Plan.World %d", spec.World, spec.Plan.World)}
	}
	if spec.MicroBatch < 1 {
		return StepResult{Err: fmt.Errorf("RunSpec.MicroBatch %d must be >= 1", spec.MicroBatch)}
	}
	if err := spec.Plan.Validate(); err != nil {
		return StepResult{Err: err}
	}
	if spec.Shape.NumExperts%spec.Plan.EP != 0 || spec.Plan.EP > spec.Shape.NumExperts {
		return StepResult{Err: fmt.Errorf("EP %d incompatible with %d experts", spec.Plan.EP, spec.Shape.NumExperts)}
	}

	// --- Memory verdict ----------------------------------------------------
	peak, states, acts := peakMem(sys, spec.Shape, spec.Plan, spec.MicroBatch, spec.ActCkpt)
	res := StepResult{
		PeakMemGB: float64(peak) / (1 << 30),
		StatesGB:  float64(states) / (1 << 30),
		ActsGB:    float64(acts) / (1 << 30),
	}
	if peak > spec.Machine.Device.MemBytes && !spec.SkipMemCheck {
		res.OOM = true
		return res
	}

	return simulateTiming(sys, spec, res)
}

// layerRun is one full-layer (fwd+bwd) SPMD simulation outcome.
type layerRun struct {
	// net prices the step's tail collectives; holding it instead of the
	// cluster lets the run's ranks, traces and device-memory maps go
	// while the next run executes.
	net *netsim.Network
	// wall is the slowest rank's fwd+bwd clock.
	wall float64
	// preWait is the slowest rank's clock just before it waits on the
	// gradient sync (wall when the run issues none). At TP = 1 it is the
	// sync-free run's wall bit for bit (see simulateTiming).
	preWait float64
	// fwdBreakdown is the per-stage forward time averaged over ranks
	// (snapshotted before the backward so Fig. 11 stays pure-forward).
	fwdBreakdown map[string]float64
	err          error
}

// gradFamilies returns the per-layer gradient bytes of the expert and
// dense parameter families plus the once-per-model embedding bytes,
// under the plan's sharding (bf16 gradients, matching the memmodel).
func gradFamilies(sh model.Shape, plan parallel.Plan) (expertPerLayer, densePerLayer, embedding int64) {
	expertPerLayer = sh.ExpertParamsPerLayer() / int64(plan.EP) * 2
	densePerLayer = (sh.AttentionParamsPerLayer()/int64(plan.TP) + sh.RouterParamsPerLayer()) * 2
	embedding = sh.EmbeddingParams() / int64(plan.TP) * 2
	return
}

// routingSkew is the Zipf exponent of the expert popularity every
// simulated step routes its tokens with (moe.SyntheticRouting's skew).
const routingSkew = 0.6

// routingKey names the draws a routingStore holds. Rank r's routing of n
// tokens is moe.SyntheticRouting(NewRNG(seed + 31·r + 7), n, experts,
// topK, routingSkew): with the rank and the length, which each slot
// records, the key fixes the draw bit for bit.
type routingKey struct {
	seed          uint64
	experts, topK int
}

// routingStore holds one draw per rank. A SimulateStep takes the store the
// previous call put back and puts it back when it returns, so the draws
// outlive the step: within it the sync-free run TP > 1 needs, the ActCkpt
// replay and SSMB slices of the same length read the first run's draw, and
// the next step at the same key — the next system of a figure at one seed,
// the next candidate of a Sweep — reads them again. During a step each rank
// goroutine touches only its own slot and the runs are sequential, so the
// slots need no lock.
type routingStore struct {
	key   routingKey
	slots []moe.Routing
}

// lastRoutings is the store the latest SimulateStep put back; nil while a
// step holds it, so a concurrent step starts an empty store of its own and
// no two steps ever share one.
var lastRoutings struct {
	sync.Mutex
	store *routingStore
}

// routingDraws counts the routings drawn through stores and layerRuns the
// runFullLayer calls; tests read them to pin the draws the store saves
// and the layer runs a step pays.
var routingDraws, layerRuns atomic.Int64

// takeRoutings takes the stored draws when they were made at key, or
// starts an empty store, with at least world slots.
func takeRoutings(key routingKey, world int) *routingStore {
	lastRoutings.Lock()
	st := lastRoutings.store
	lastRoutings.store = nil
	lastRoutings.Unlock()
	if st == nil || st.key != key {
		st = &routingStore{key: key}
	}
	if grow := world - len(st.slots); grow > 0 {
		st.slots = append(st.slots, make([]moe.Routing, grow)...)
	}
	return st
}

// putRoutings leaves st for the next step to take.
func putRoutings(st *routingStore) {
	lastRoutings.Lock()
	lastRoutings.store = st
	lastRoutings.Unlock()
}

// get returns rank's routing for n tokens, drawing it only when the slot
// does not hold one of that length.
func (st *routingStore) get(rank, n int) moe.Routing {
	if rt := st.slots[rank]; rt.Experts != nil && rt.S == n {
		return rt
	}
	routingDraws.Add(1)
	st.slots[rank] = moe.SyntheticRouting(tensor.NewRNG(st.key.seed+uint64(rank)*31+7),
		n, st.key.experts, st.key.topK, routingSkew)
	return st.slots[rank]
}

// simulateTiming is the timing half of SimulateStep, for a configuration
// that fits: one simulated transformer layer runs its forward and its
// symbolic backward (mirrored all-to-alls, dW/dX GEMM costs) on the
// cluster. Gradient sync either overlaps the backward (bucketed async
// reduce issued from the backward's OnDWReady hook, ZeRO stage from the
// plan) or, with BlockingGradSync, is charged as the classic blocking tail.
//
// The accumulation micro-steps before the last run the layer without the
// sync. Issuing the sync moves no rank's clock: the async reduces only
// queue flights on the comm stream, and the cost engines' expected,
// memoized prices do not depend on query order. At TP = 1 the rank issues
// no collective after the sync: the MoE backward only drains flights
// issued before it, and the gate and dense backward are compute. So every
// rank's clock before its sync wait is its sync-free clock bit for bit,
// and one run prices both kinds of micro-step. At TP > 1 the dense
// backward's blocking tp_bwd_allreduce queues behind the sync buckets on
// the comm stream, so a second, sync-free run prices the others.
func simulateTiming(sys Config, spec RunSpec, res StepResult) StepResult {
	expertPerLayer, densePerLayer, embedBytes := gradFamilies(spec.Shape, spec.Plan)
	edpGroups := spec.Plan.ExpertDPGroups()
	dpGroups := spec.Plan.DPGroups()
	hasEDP := len(edpGroups) > 0 && len(edpGroups[0]) > 1
	hasDP := len(dpGroups) > 0 && len(dpGroups[0]) > 1

	dataDP := spec.World / spec.Plan.TP
	microSteps := spec.GlobalBatch / (spec.MicroBatch * dataDP)
	if microSteps < 1 {
		microSteps = 1
	}

	withSync := !spec.BlockingGradSync && (hasEDP || hasDP)
	// Gradients sync once per iteration, so the micro-steps before the last
	// run the layer sync-free: priced by the synced run's pre-wait clock at
	// TP = 1, by a second run on the same draws at TP > 1.
	secondRun := withSync && microSteps > 1 && spec.Plan.TP > 1
	routings := takeRoutings(routingKey{seed: spec.Seed, experts: spec.Shape.NumExperts, topK: spec.Shape.TopK}, spec.World)
	defer putRoutings(routings)
	primary := runFullLayer(sys, spec, withSync, routings)
	if primary.err != nil {
		return StepResult{Err: primary.err}
	}
	layerSync := primary.wall
	layerNoSync := primary.preWait
	if secondRun {
		plain := runFullLayer(sys, spec, false, routings)
		if plain.err != nil {
			return StepResult{Err: plain.err}
		}
		layerNoSync = plain.wall
	}
	res.LayerForward = primary.fwdBreakdown

	// Fixed per-micro-step overhead: optimizer bookkeeping, data loading,
	// host-side launch gaps between layers.
	const microOverhead = 0.03
	net := primary.net
	layers := float64(spec.Shape.Layers)

	// Synchronisation tails shared by both sync modes: the embedding
	// gradient (not covered by the per-layer sync) and, at ZeRO stages
	// 1/2, the post-step parameter all-gather republishing the shards
	// updated by their owners.
	var tail float64
	gradTail := func(ranks []int, bytes int64) float64 {
		if spec.Plan.ZeROStage >= 2 {
			return net.ReduceScatter(ranks, bytes).Seconds
		}
		return net.AllReduce(ranks, bytes).Seconds
	}
	agTail := func(ranks []int, paramBytes int64) float64 {
		return net.AllGather(ranks, netsim.ShardBytes(paramBytes, len(ranks))).Seconds
	}
	if hasDP && embedBytes > 0 {
		tail += gradTail(dpGroups[0], embedBytes)
	}
	if spec.Plan.ZeROStage >= 1 {
		if hasEDP {
			tail += agTail(edpGroups[0], int64(spec.Shape.Layers)*expertPerLayer)
		}
		if hasDP {
			tail += agTail(dpGroups[0], int64(spec.Shape.Layers)*densePerLayer+embedBytes)
		}
	}

	res.MicroSteps = microSteps
	if withSync {
		res.IterSeconds = float64(microSteps-1)*(layers*layerNoSync+microOverhead) +
			(layers*layerSync + microOverhead) + tail
	} else {
		// Blocking mode: every micro-step runs sync-free, then the whole
		// family gradients synchronise serially at the end.
		var syncTime float64
		if hasEDP {
			syncTime += gradTail(edpGroups[0], int64(spec.Shape.Layers)*expertPerLayer)
		}
		if hasDP {
			syncTime += gradTail(dpGroups[0], int64(spec.Shape.Layers)*densePerLayer)
		}
		res.IterSeconds = float64(microSteps)*(layers*layerNoSync+microOverhead) + syncTime + tail
	}

	finishThroughput(&res, spec, dataDP)
	return res
}

// runFullLayer simulates one transformer layer's forward and backward on
// a fresh cluster, optionally with the bucketed overlapped gradient sync
// issued from the backward. Ranks take their routing from routings.
func runFullLayer(sys Config, spec RunSpec, withSync bool, routings *routingStore) layerRun {
	layerRuns.Add(1)
	cluster := simrt.NewCluster(spec.Machine, spec.World, spec.Seed)
	cluster.Net.DisableCongestion = !spec.Congestion
	// One simulated layer stands for all layers, so congestion must enter
	// as its expectation rather than a single sample.
	cluster.Net.ExpectedCongestion = true

	cfg := moe.LayerOf(spec.Shape)
	layerOfRank := make([]*transport.Layer, spec.World)
	for _, ranks := range spec.Plan.EPGroups() {
		layer := transport.New(sys.Transport, cluster, cluster.NewGroup(ranks), cfg)
		for _, r := range ranks {
			layerOfRank[r] = layer
		}
	}
	tpOfRank := make([]*simrt.Group, spec.World)
	if spec.Plan.TP > 1 {
		for _, ranks := range spec.Plan.TPGroups() {
			g := cluster.NewGroup(ranks)
			for _, r := range ranks {
				tpOfRank[r] = g
			}
		}
	}
	edpOfRank := make([]*simrt.Group, spec.World)
	dpOfRank := make([]*simrt.Group, spec.World)
	if withSync {
		if gs := spec.Plan.ExpertDPGroups(); len(gs) > 0 && len(gs[0]) > 1 {
			for _, ranks := range gs {
				g := cluster.NewGroup(ranks)
				for _, r := range ranks {
					edpOfRank[r] = g
				}
			}
		}
		if gs := spec.Plan.DPGroups(); len(gs) > 0 && len(gs[0]) > 1 {
			for _, ranks := range gs {
				g := cluster.NewGroup(ranks)
				for _, r := range ranks {
					dpOfRank[r] = g
				}
			}
		}
	}

	opts := sys.PipelineOpts()
	opts.SaveForBackward = true
	if err := layerOfRank[0].Check(opts); err != nil {
		return layerRun{err: err}
	}
	sTokens := spec.MicroBatch * spec.Shape.SeqLen
	h := spec.Shape.HModel
	expertPerLayer, densePerLayer, _ := gradFamilies(spec.Shape, spec.Plan)
	zcfg := zero.Config{Stage: spec.Plan.ZeROStage, BucketBytes: spec.BucketBytes}

	fwdBds := make([]map[string]float64, spec.World)
	preWait := make([]float64, spec.World)

	ranks, err := cluster.RunCollect(func(r *simrt.Rank) error {
		comp := r.C.Comp
		layer := layerOfRank[r.ID]
		tp := tpOfRank[r.ID]
		tpDeg := spec.Plan.TP

		denseGemm := comp.GEMM(sTokens, h, 4*h/tpDeg) +
			comp.GEMM(sTokens, h/tpDeg, spec.Shape.SeqLen) +
			comp.GEMM(sTokens, spec.Shape.SeqLen, h/tpDeg)
		denseFwd := func() {
			// Dense (attention) block: QKV/output projections plus
			// score/context GEMMs, TP-sharded, followed by the TP
			// all-reduce on the block output.
			r.Compute("dense_gemm", denseGemm)
			// Norms, residuals, dropout and other elementwise traffic
			// around the block.
			r.Compute("dense_elemwise", r.C.Comp.MemBound(perfmodel.ClassVendor, 6*int64(sTokens)*int64(h)*2))
			if tp != nil {
				r.AllReduce(tp, "tp_allreduce", nil, int64(sTokens)*int64(h)*2)
			}
		}

		// MoE block forward, with state capture for the backward. state is
		// the state of the rank's latest forward — the ActCkpt replay
		// replaces the first pass's — and is what the backward reverses.
		var state *moe.PFTFwdState
		runInner := func(n int) {
			state = layer.Forward(r, n, nil, routings.get(r.ID, n), nil, tensor.NewRNG(spec.Seed^uint64(r.ID)), opts).State
		}
		moeFwd := func() {
			if sys.SSMB && tp != nil {
				parallel.SSMBForward(r, tp, sTokens, h, cfg.BytesPerElem, nil,
					func(lo, hi int, _ *tensor.Tensor) *tensor.Tensor {
						runInner(hi - lo)
						return nil
					})
			} else {
				runInner(sTokens)
			}
		}
		denseFwd()
		moeFwd()

		// Snapshot the forward-only per-stage breakdown (Fig. 11's
		// quantity) before any backward or recompute charges land.
		snap := make(map[string]float64)
		for name, d := range r.Trace.Breakdown() {
			snap[name] = d
		}
		fwdBds[r.ID] = snap

		// --- Backward ------------------------------------------------------
		if spec.ActCkpt {
			// Recomputation replays the whole layer forward, including
			// the two MoE all-to-alls (§4.3's argument against
			// checkpointing MoE blocks).
			denseFwd()
			moeFwd()
		}

		var esync, dsync *zero.Syncer
		if withSync {
			if g := edpOfRank[r.ID]; g != nil {
				esync = zero.NewSyncer(r, g, "egrad_sync", zcfg)
			}
			if g := dpOfRank[r.ID]; g != nil {
				dsync = zero.NewSyncer(r, g, "dgrad_sync", zcfg)
			}
		}
		syncIssue := func() {
			if esync != nil {
				esync.Add(nil, expertPerLayer)
				esync.Flush()
			}
			if dsync != nil {
				dsync.Add(nil, densePerLayer)
				dsync.Flush()
			}
		}

		if sys.SSMB && tp != nil {
			parallel.SSMBBackward(r, tp, sTokens, h, cfg.BytesPerElem, nil,
				func(lo, hi int, _ *tensor.Tensor) *tensor.Tensor {
					state.Backward(r, nil, nil, opts)
					return nil
				})
			// The SSMB backward ends in a blocking all-gather that would
			// absorb an earlier sync issue; fire the hook after it.
			syncIssue()
		} else {
			bopts := opts
			if withSync {
				bopts.OnDWReady = syncIssue
			} else {
				bopts.OnDWReady = nil
			}
			state.Backward(r, nil, nil, bopts)
		}
		// Gate backward: dScores GEMM + dX GEMM of the [n, H] x [H, E]
		// gating projection.
		r.Compute("bwd_gate", 2*comp.GEMM(sTokens, h, cfg.NumExperts))

		// Dense block backward: dX and dW GEMMs (2x the forward GEMM
		// volume), mirrored elementwise traffic, and the TP gradient
		// all-reduce.
		r.Compute("dense_bwd_gemm", 2*denseGemm)
		r.Compute("dense_bwd_elemwise", r.C.Comp.MemBound(perfmodel.ClassVendor, 6*int64(sTokens)*int64(h)*2))
		if tp != nil {
			r.AllReduce(tp, "tp_bwd_allreduce", nil, int64(sTokens)*int64(h)*2)
		}

		preWait[r.ID] = r.Clock
		if esync != nil {
			esync.Wait()
		}
		if dsync != nil {
			dsync.Wait()
		}
		return nil
	})
	if err != nil {
		return layerRun{err: err}
	}

	out := layerRun{net: cluster.Net, fwdBreakdown: trace.MergeMaps(fwdBds, true)}
	for i, rk := range ranks {
		out.wall = max(out.wall, rk.Clock)
		out.preWait = max(out.preWait, preWait[i])
	}
	return out
}

// finishThroughput fills the FLOPs-derived fields from IterSeconds.
func finishThroughput(res *StepResult, spec RunSpec, dataDP int) {
	tokens := float64(spec.GlobalBatch) * float64(spec.Shape.SeqLen)
	if spec.GlobalBatch < spec.MicroBatch*dataDP {
		tokens = float64(spec.MicroBatch*dataDP) * float64(spec.Shape.SeqLen)
	}
	flops := spec.Shape.FLOPsPerToken() * tokens
	res.TFLOPsPerGPU = flops / res.IterSeconds / float64(spec.World) / 1e12
	res.AggPFLOPs = flops / res.IterSeconds / 1e15
}

// MaxMicroBatch returns the largest power-of-two micro-batch (>=1, up to
// 64) that fits device memory for the system and plan, or 0 when even
// micro-batch 1 does not fit (§5.1: "maximum micro-batch size of power of
// 2 under the memory limitation").
func MaxMicroBatch(sys Config, shape model.Shape, machine *topology.Machine, plan parallel.Plan, actCkpt bool) int {
	best := 0
	for mb := 1; mb <= 64; mb *= 2 {
		if peak, _, _ := peakMem(sys, shape, plan, mb, actCkpt); peak <= machine.Device.MemBytes {
			best = mb
		} else {
			break
		}
	}
	return best
}

// SweepResult reports the best configuration found for a system.
type SweepResult struct {
	// OOM is true when no swept configuration fits memory.
	OOM bool
	// Best is the winning step result.
	Best StepResult
	// Plan and MicroBatch identify the winning configuration.
	Plan       parallel.Plan
	MicroBatch int
}

// Sweep reproduces the paper's per-system configuration search (§5.1):
// EP in {32, 64, 128, 256}, ZeRO stages 1-2, TP in {1, 2, 4, 8} for
// systems that support it, and the maximum power-of-two micro-batch that
// fits. It returns the configuration with the highest simulated
// throughput.
func Sweep(sys Config, shape model.Shape, machine *topology.Machine, world, globalBatch int, seed uint64, congestion bool) SweepResult {
	eps := []int{8, 16, 32, 64, 128, 256}
	tps := []int{1}
	if sys.SupportsTP {
		tps = []int{1, 2, 4, 8}
	}
	zeros := []int{1, 2}
	if sys.Sys == XMoE {
		zeros = []int{1}
	}

	out := SweepResult{OOM: true}
	for _, ep := range eps {
		if ep > shape.NumExperts || ep > world || world%ep != 0 || shape.NumExperts%ep != 0 {
			continue
		}
		if sys.MaxEP > 0 && ep > sys.MaxEP {
			continue
		}
		for _, tp := range tps {
			if world%tp != 0 || tp > world {
				continue
			}
			for _, z := range zeros {
				plan := parallel.Plan{
					World: world, TP: tp, EP: ep,
					Placement: sys.Placement, SSMB: sys.SSMB, ZeROStage: z,
				}
				if plan.Validate() != nil {
					continue
				}
				mb := MaxMicroBatch(sys, shape, machine, plan, false)
				if mb == 0 {
					continue
				}
				r := SimulateStep(sys, RunSpec{
					Shape: shape, Machine: machine, World: world, Plan: plan,
					MicroBatch: mb, GlobalBatch: globalBatch, Seed: seed,
					Congestion: congestion,
				})
				if r.Err != nil || r.OOM {
					continue
				}
				if out.OOM || r.TFLOPsPerGPU > out.Best.TFLOPsPerGPU {
					out = SweepResult{Best: r, Plan: plan, MicroBatch: mb}
				}
			}
		}
	}
	return out
}
