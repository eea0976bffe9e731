package main

// api.go is the only file of the benchmark that imports the repository's
// packages. Every call the benchmark makes into the simulator goes through
// one of the thin adapters below, so the public surface a later PR has to
// keep stable (or change here, in one place) is this file's import list
// plus the functions named in its bodies. The adapters hold no benchmark
// logic: they translate between the repo's types and the benchmark's own
// plain structs, nothing else.

import (
	"io"
	"math"
	"sort"
	"strings"

	"xmoe/internal/baselines"
	"xmoe/internal/bench"
	"xmoe/internal/devent"
	"xmoe/internal/kernels"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/netsim"
	"xmoe/internal/parallel"
	"xmoe/internal/perfmodel"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/train"
	"xmoe/internal/zero"
)

// Opaque handles the rest of the benchmark passes around without knowing
// their fields.
type (
	machine    = topology.Machine
	graph      = topology.Graph
	cluster    = simrt.Cluster
	group      = simrt.Group
	rank       = simrt.Rank
	costEngine = netsim.CostEngine
	netCost    = netsim.Cost
	linkClass  = topology.LinkClass
	moeConfig  = moe.Config
	routing    = moe.Routing
	dispatcher = rbd.Dispatcher
	trainer    = train.DistTrainer
	checkpoint = train.Checkpoint
	tensorT    = tensor.Tensor
	gemmModel  = perfmodel.Model
)

// --- topology / model -----------------------------------------------------

func frontier() *machine { return topology.Frontier() }

func railGraph(m *machine, n int) *graph { return topology.RailGraph(m, n, 0) }

// layerConfig is the MoE layer of a model shape as every figure of the
// repo configures it (capacity factor 1.25, bf16 on the wire).
func layerConfig(sh model.Shape) moeConfig {
	return moe.Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: sh.HModel,
		HFFN: sh.HFFN, CapacityFactor: 1.25, BytesPerElem: 2}
}

func largeLayerConfig() (cfg moeConfig, seqLen int) {
	sh := model.Large()
	return layerConfig(sh), sh.SeqLen
}

// --- cost engines ---------------------------------------------------------

func newEventEngine(g *graph) costEngine { return devent.New(g) }

func newAnalyticEngine(m *machine, seed uint64, jobRanks int) costEngine {
	n := netsim.New(m, seed)
	n.JobRanks = jobRanks
	n.DisableCongestion = true
	return n
}

func queryAlltoAllV(e costEngine, ranks []int, bytes [][]int64) { e.AlltoAllV(ranks, bytes) }

func queryAllReduce(e costEngine, ranks []int, bytes int64) { e.AllReduce(ranks, bytes) }

func interNodeBytes(c netCost) int64 { return c.InterNodeBytes() }

// --- simrt ----------------------------------------------------------------

// newCluster builds a congestion-free cluster, the regime of every layer
// ablation in the repo.
func newCluster(m *machine, n int, seed uint64) *cluster {
	c := simrt.NewCluster(m, n, seed)
	c.Net.DisableCongestion = true
	return c
}

func clusterEngine(c *cluster) costEngine { return c.CostEngine() }

func setClusterEngine(c *cluster, e costEngine) { c.Engine = e }

func worldGroup(c *cluster) *group { return c.WorldGroup() }

func runCollect(c *cluster, fn func(r *rank) error) ([]*rank, error) { return c.RunCollect(fn) }

func maxClock(ranks []*rank) float64 { return simrt.MaxClock(ranks) }

func rankID(r *rank) int { return r.ID }

func emptyAlltoAllV(r *rank, g *group) {
	r.AlltoAllV(g, "probe", make([]simrt.Part, g.Size()))
}

// commTimes splits one rank's recorded communication (stage names holding
// "a2a") into the time charged to its clock (exposed) and the in-flight
// time that compute covered (hidden), using the identity trace.Recorder
// documents: hidden = OverlappedTotal(name) - Total(name).
func commTimes(r *rank) (exposed, hidden float64) {
	charged, inFlight := r.Trace.Breakdown(), r.Trace.OverlapBreakdown()
	for name, d := range charged {
		if !strings.Contains(name, "a2a") {
			continue
		}
		exposed += d
		if h := inFlight[name] - d; h > 0 {
			hidden += h
		}
	}
	return exposed, hidden
}

// --- moe ------------------------------------------------------------------

func syntheticRouting(seed uint64, s, e, k int, skew float64) routing {
	return moe.SyntheticRouting(tensor.NewRNG(seed), s, e, k, skew)
}

// routedPFT builds the PFT a transport dispatches and returns its rows.
func routedPFT(rt routing, cfg moeConfig, s int) int {
	return moe.RoutedPFT(rt, cfg, s, moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight}).B()
}

// layerCounts is what one rank's symbolic fwd+bwd reports.
type layerCounts struct{ routed, dropped int }

func pftFwdBwd(r *rank, g *group, cfg moeConfig, s int, rt routing, chunks int) layerCounts {
	res := moe.PFTForward(r, g, cfg, s, nil, rt, nil, moe.PipelineOpts{
		DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks})
	moe.PFTBackward(r, g, cfg, res.State, nil, nil, moe.PipelineOpts{OverlapChunks: chunks})
	return layerCounts{res.RoutedTokens, res.Dropped}
}

func paddedFwdBwd(r *rank, g *group, cfg moeConfig, s int, rt routing, chunks int) layerCounts {
	res := moe.PaddedForward(r, g, cfg, s, nil, rt, nil, moe.PipelineOpts{
		DropPolicy: moe.DropNegativeThenPosition, SaveForBackward: true, OverlapChunks: chunks})
	moe.PaddedBackward(r, g, cfg, res.PaddedState, nil, nil, moe.PipelineOpts{OverlapChunks: chunks})
	return layerCounts{res.RoutedTokens, res.Dropped}
}

// --- rbd ------------------------------------------------------------------

func newDispatcher(c *cluster, g *group, cfg moeConfig) *dispatcher {
	return rbd.NewDispatcher(c, g, cfg)
}

type rbdState = rbd.FwdState

func rbdForward(r *rank, d *dispatcher, cfg moeConfig, s int, rt routing, pilotSeed uint64, chunks int) (*rbdState, layerCounts) {
	res := rbd.Forward(r, d, cfg, s, nil, rt, nil, tensor.NewRNG(pilotSeed), moe.PipelineOpts{
		DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks})
	return res.State, layerCounts{res.RoutedTokens, res.Dropped}
}

func rbdBackward(r *rank, d *dispatcher, cfg moeConfig, st *rbdState, chunks int) {
	rbd.Backward(r, d, cfg, st, nil, nil, moe.PipelineOpts{OverlapChunks: chunks})
}

// redundancyRate is the redundant share of the copies one source rank's
// routing dispatches.
func redundancyRate(d *dispatcher, rt routing, srcNode int) float64 {
	return rbd.AnalyzeRedundancy(rt, d.NodeOfExpert, srcNode).Rate()
}

// --- baselines ------------------------------------------------------------

// stepPoint is one system at the first point of Fig. 10a: Small model,
// Frontier, 16 GPUs, EP 8, ZeRO-1, global batch 256.
type stepPoint struct {
	sys   baselines.Config
	plan  parallel.Plan
	shape model.Shape
	m     *machine
	// microBatch is MaxMicroBatch's answer; 0 means nothing fits.
	microBatch int
	// paperTFLOPs is the paper's TFLOPs/GPU for this system at 16 GPUs.
	paperTFLOPs float64
}

const (
	stepWorld       = 16
	stepGlobalBatch = 256
)

func newStepPoint(xmoe bool) *stepPoint {
	sysID, paper := baselines.Tutel, 40.46
	if xmoe {
		sysID, paper = baselines.XMoE, 48.26
	}
	m := topology.Frontier()
	cfg := baselines.For(sysID, m)
	return &stepPoint{sys: cfg, shape: model.Small(), m: m, paperTFLOPs: paper,
		plan: parallel.Plan{World: stepWorld, TP: 1, EP: 8, Placement: cfg.Placement,
			SSMB: cfg.SSMB, ZeROStage: 1}}
}

func (p *stepPoint) maxMicroBatch() int {
	p.microBatch = baselines.MaxMicroBatch(p.sys, p.shape, p.m, p.plan, false)
	return p.microBatch
}

// tokensRoutedPerStep is how many tokens SimulateStep generates routing
// for: one routing per rank per simulated layer run.
func (p *stepPoint) tokensPerRank() int { return p.microBatch * p.shape.SeqLen }

// paperErr is the relative distance of a simulated TFLOPs/GPU from the
// paper's number for this system.
func (p *stepPoint) paperErr(tflops float64) float64 {
	return math.Abs(tflops-p.paperTFLOPs) / p.paperTFLOPs
}

func (p *stepPoint) layerConfig() moeConfig { return layerConfig(p.shape) }

// stepOut is the part of baselines.StepResult the benchmark reads.
type stepOut struct {
	oom        bool
	err        error
	tflops     float64
	iterS      float64
	peakMemGB  float64
	layerFwdMs float64
}

func simulateStep(p *stepPoint, seed uint64) stepOut {
	r := baselines.SimulateStep(p.sys, baselines.RunSpec{
		Shape: p.shape, Machine: p.m, World: stepWorld, Plan: p.plan,
		MicroBatch: p.microBatch, GlobalBatch: stepGlobalBatch, Seed: seed, Congestion: true})
	// Sum the stages in name order: map order would make the float sum,
	// and with it the digest, differ from run to run.
	stages := make([]string, 0, len(r.LayerForward))
	for name := range r.LayerForward {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	var fwd float64
	for _, name := range stages {
		fwd += r.LayerForward[name]
	}
	return stepOut{oom: r.OOM, err: r.Err, tflops: r.TFLOPsPerGPU, iterS: r.IterSeconds,
		peakMemGB: r.PeakMemGB, layerFwdMs: fwd * 1e3}
}

// --- train ----------------------------------------------------------------

// Trainer shape of the numeric workload: small enough that a step is
// ~0.25 s on two cores, large enough that GEMMs dominate it.
const (
	trainWorld   = 8
	trainExperts = 16
	trainTopK    = 4
	trainH       = 128
	trainF       = 64
	trainTokens  = 512
	trainChunks  = 2
)

func trainerLayerConfig() moeConfig {
	return moe.Config{NumExperts: trainExperts, TopK: trainTopK, HModel: trainH, HFFN: trainF,
		CapacityFactor: 1.25, BytesPerElem: 2}
}

func newTrainer(transport string, seed uint64) (*trainer, error) {
	return train.NewDistTrainer(train.DistConfig{
		MoE: trainerLayerConfig(), World: trainWorld, Tokens: trainTokens, LR: 1e-2, Seed: seed,
		Transport: transport, ZeROStage: 1, Momentum: 0.9,
		Opts: moe.PipelineOpts{OverlapChunks: trainChunks},
	})
}

// trainOut is the part of train.DistStepStats the benchmark reads.
type trainOut struct {
	loss, simS, commInFlightS, maxImbalance float64
}

func trainerStep(t *trainer) (trainOut, error) {
	st, err := t.Step()
	return trainOut{st.Loss, st.WallClock, st.CommInFlight, st.MaxImbalance}, err
}

func trainerCheckpoint(t *trainer) *checkpoint { return t.Checkpoint() }

func trainerRestore(t *trainer, ck *checkpoint) error { return t.Restore(ck) }

// --- zero -----------------------------------------------------------------

// zeroSync runs one bucketed ZeRO-1 gradient sync of elems float32 inside
// a rank function.
func zeroSync(r *rank, g *group, grad []float32) {
	s := zero.NewSyncer(r, g, "probe_sync", zero.Config{Stage: 1, BucketBytes: 1 << 16})
	s.Add(grad, int64(len(grad))*4)
	s.Flush()
	s.Wait()
}

// --- perfmodel ------------------------------------------------------------

func newGEMMModel(m *machine) *gemmModel { return perfmodel.ForDevice(m.Device) }

func gemmSeconds(md *gemmModel, m, k, n int) float64 { return md.GEMM(m, k, n) }

// --- tensor / kernels -----------------------------------------------------

func setMaxWorkers(n int) { tensor.SetMaxWorkers(n) }

func randn(seed uint64, rows, cols int) *tensorT {
	return tensor.Randn(tensor.NewRNG(seed), 0.02, rows, cols)
}

func newTensor(rows, cols int) *tensorT { return tensor.New(rows, cols) }

func matMulInto(c, a, b *tensorT)  { tensor.MatMulInto(c, a, b) }
func matMulTInto(c, a, b *tensorT) { tensor.MatMulTInto(c, a, b) }
func tMatMulInto(c, a, b *tensorT) { tensor.TMatMulInto(c, a, b) }
func gelu(t *tensorT)              { tensor.GeLU(t) }

func parallelFor(n, grain int, fn func(lo, hi int)) { tensor.ParallelFor(n, grain, fn) }

func poolGetPut(p *tensor.Pool, rows, cols int) { p.Put(p.Get(rows, cols)) }

func newPool() *tensor.Pool { return &tensor.Pool{} }

func gatherInto(out, x *tensorT, ids []int) { kernels.GatherInto(out, x, ids) }

func scatterCombineInto(out, x *tensorT, ids []int, w []float32) {
	kernels.ScatterCombineInto(out, x, ids, w)
}

func sequentialGEMMInto(out, x *tensorT, rows []int, w []*tensorT) {
	kernels.SequentialGEMMInto(out, x, rows, w)
}

func groupByDestination(ids []int, n int) { kernels.GroupByDestination(ids, n) }

// --- bench (the figure rung) ----------------------------------------------

func figure10aQuick(seed uint64) {
	bench.Figure10aWeakScaling(io.Discard, bench.Options{Seed: seed, Quick: true})
}

func figure11Quick(seed uint64) {
	bench.Figure11LayerBreakdown(io.Discard, bench.Options{Seed: seed, Quick: true})
}
