package main

import (
	"fmt"
	"math"
)

// opOut is what one operation hands back to the runner.
type opOut struct {
	// sim holds every simulated float the operation produced; the runner
	// hashes it into sim_digest and compares the replay of op 0 against it.
	sim []float64
	// simMs is the simulated time of the operation, the sim_step_ms sample.
	simMs float64
	// loss is the training loss after the operation and paperErrPct the
	// error against the paper's numbers; each is NaN on a workload whose
	// operations do not produce it.
	loss, paperErrPct float64
	// read holds per-layer numbers read from the program's public result
	// structs; filled only when the operation runs under a tracer, and
	// averaged over the traced operations.
	read map[string]float64
}

// state is one workload after set-up: inputs generated from the seed and
// program objects built.
type state interface {
	// warmup runs the discarded operations that precede operation 0; the
	// runner counts it into set-up time.
	warmup() error
	// op runs operation i. Operations of the symbolic workloads are pure
	// functions of (seed, i); the trainer's advance its weights.
	op(i int, tr *tracer) (opOut, error)
	// replay re-runs operation 0, for the digest check.
	replay() (opOut, error)
	// extras runs once after the traced pass, for per-layer numbers that
	// need calls the operations do not make. May return nil.
	extras(tr *tracer) (map[string]float64, error)
	// shapes tells the isolated probes which sizes this workload uses.
	shapes() probeShapes
}

// probeShapes are the sizes the isolated probes run at.
type probeShapes struct {
	world           int // ranks in the workload's collectives
	tokens, experts int // per-rank routing problem
	topK            int
	cfg             moeConfig
}

type workload struct {
	name string
	// why is the one-sentence reason the workload exists; BENCHMARK.json
	// carries the same text.
	why string
	// simOps is the fixed prefix of timed operations the simulated metrics
	// (sim_step_ms, final_loss, sim_digest) are taken over, so that they do
	// not depend on how many operations the host fits into the run.
	simOps int
	setup  func(seed uint64, tr *tracer) (state, error)
}

var workloads = []workload{
	{
		name:   "step_sweep",
		why:    "baselines.SimulateStep for X-MoE and Tutel at the first Fig. 10a point: the path every figure sweep pays; routing generation and rbd.Forward dominate, netsim/devent/tensor idle",
		simOps: 4,
		setup:  setupStepSweep,
	},
	{
		name:   "layer_blocking",
		why:    "symbolic fwd+bwd of the Large MoE layer at EP=64 for pft, padded and rbd with OverlapChunks=1 on pre-built routing: isolates the blocking pipelines of the three transports",
		simOps: 4,
		setup:  func(seed uint64, tr *tracer) (state, error) { return setupLayer(seed, tr, 1, false) },
	},
	{
		name:   "layer_chunked",
		why:    "the same layers with OverlapChunks=4 in both passes: the chunked-overlap pipelines, where hidden vs exposed all-to-all time and the RBD overlap gap live",
		simOps: 4,
		setup:  func(seed uint64, tr *tracer) (state, error) { return setupLayer(seed, tr, 4, false) },
	},
	{
		name:   "layer_event",
		why:    "the chunked layers priced by a fresh devent engine on the rail graph per transport: the only workload where the event engine's simulate loop is the cost",
		simOps: 2,
		setup:  func(seed uint64, tr *tracer) (state, error) { return setupLayer(seed, tr, 4, true) },
	},
	{
		name:   "train_numeric",
		why:    "DistTrainer.Step on a PFT and an RBD trainer with real float math: tensor GEMMs and GeLU dominate, so routing or cost-engine work must predict no change here",
		simOps: 8,
		setup:  setupTrain,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- step_sweep -----------------------------------------------------------

type stepState struct {
	seed  uint64
	xmoe  *stepPoint
	tutel *stepPoint
}

func newStepPoints(tr *tracer) (xmoe, tutel *stepPoint, err error) {
	xmoe, tutel = newStepPoint(true), newStepPoint(false)
	for _, p := range []*stepPoint{xmoe, tutel} {
		end := tr.begin("baselines.max_micro_batch", driverTID)
		mb := p.maxMicroBatch()
		end()
		if mb == 0 {
			return nil, nil, fmt.Errorf("MaxMicroBatch found no micro-batch that fits")
		}
	}
	return xmoe, tutel, nil
}

func setupStepSweep(seed uint64, tr *tracer) (state, error) {
	x, t, err := newStepPoints(tr)
	if err != nil {
		return nil, err
	}
	return &stepState{seed: seed, xmoe: x, tutel: t}, nil
}

// warmupOp runs one operation whose seed is outside the timed range: it
// fills perfmodel's GEMM memo and netsim's cost memo, starts tensor's
// worker pool and grows the heap to its working size.
func warmupOp(st state) error {
	_, err := st.op(-1, nil)
	return err
}

func (st *stepState) warmup() error { return warmupOp(st) }

func (st *stepState) op(i int, tr *tracer) (opOut, error) {
	seed := st.seed + uint64(int64(i))
	end := tr.begin("baselines.simulate_step_xmoe", driverTID)
	x := simulateStep(st.xmoe, seed)
	end()
	end = tr.begin("baselines.simulate_step_tutel", driverTID)
	t := simulateStep(st.tutel, seed)
	end()
	for _, r := range []stepOut{x, t} {
		switch {
		case r.err != nil:
			return opOut{}, r.err
		case r.oom:
			return opOut{}, fmt.Errorf("unexpected OOM verdict")
		case !finite(r.tflops, r.iterS) || r.iterS <= 0:
			return opOut{}, fmt.Errorf("non-finite step result: %g TFLOPs, %g s", r.tflops, r.iterS)
		}
	}
	out := opOut{
		sim:         []float64{x.tflops, x.iterS, x.peakMemGB, x.layerFwdMs, t.tflops, t.iterS, t.peakMemGB, t.layerFwdMs},
		simMs:       (x.iterS + t.iterS) * 1e3,
		loss:        math.NaN(),
		paperErrPct: (st.xmoe.paperErr(x.tflops) + st.tutel.paperErr(t.tflops)) / 2 * 100,
	}
	if tr != nil {
		out.read = map[string]float64{
			"baselines.sim_tflops_xmoe":      x.tflops,
			"baselines.sim_tflops_tutel":     t.tflops,
			"baselines.sim_iter_s_xmoe":      x.iterS,
			"baselines.sim_peak_mem_gb_xmoe": x.peakMemGB,
			"baselines.sim_layer_fwd_ms":     x.layerFwdMs,
		}
	}
	return out, nil
}

func (st *stepState) replay() (opOut, error) { return st.op(0, nil) }

// stepRoutingSkew is the skew SimulateStep generates its routing with.
const stepRoutingSkew = 0.6

// extras runs the three transports once at SimulateStep's own layer shape
// (one EP=8 group, micro-batch x sequence tokens per rank, blocking), so
// that rbd.fwd_ms and its neighbours have a value on this workload too:
// SimulateStep makes those calls inside itself, out of the benchmark's
// sight.
func (st *stepState) extras(tr *tracer) (map[string]float64, error) {
	sh := st.shapes()
	ls := &layerState{seed: st.seed, m: st.xmoe.m, cfg: sh.cfg, s: sh.tokens, ep: sh.world, chunks: 1}
	ls.sets = [][]routing{routingSet(st.seed, 0, sh, stepRoutingSkew)}
	out, err := ls.op(0, tr)
	return out.read, err
}

func (st *stepState) shapes() probeShapes {
	cfg := st.xmoe.layerConfig()
	return probeShapes{world: 8, tokens: st.xmoe.tokensPerRank(), experts: cfg.NumExperts, topK: cfg.TopK, cfg: cfg}
}

// --- layer_* --------------------------------------------------------------

const (
	layerEP      = 64
	routingSets  = 4
	layerSkewOdd = 0.6 // odd-numbered sets are skewed, even ones uniform
)

var transports = []string{"pft", "padded", "rbd"}

type layerState struct {
	seed   uint64
	m      *machine
	cfg    moeConfig
	s, ep  int
	chunks int
	event  bool
	// sets[j][r] is rank r's routing in pre-generated set j.
	sets [][]routing
}

// routingSet generates one per-rank routing for every rank of the group.
func routingSet(seed uint64, set int, sh probeShapes, skew float64) []routing {
	out := make([]routing, sh.world)
	for r := range out {
		out[r] = syntheticRouting(seed+uint64(set)*1_000_003+uint64(r)*31, sh.tokens, sh.experts, sh.topK, skew)
	}
	return out
}

func setupLayer(seed uint64, tr *tracer, chunks int, event bool) (state, error) {
	cfg, seqLen := largeLayerConfig()
	st := &layerState{seed: seed, m: frontier(), cfg: cfg, s: seqLen, ep: layerEP, chunks: chunks, event: event}
	sh := st.shapes()
	for j := 0; j < routingSets; j++ {
		skew := 0.0
		if j%2 == 1 {
			skew = layerSkewOdd
		}
		end := tr.begin("moe.synthetic_routing_set", driverTID)
		st.sets = append(st.sets, routingSet(seed, j, sh, skew))
		end()
	}
	return st, nil
}

func (st *layerState) warmup() error { return warmupOp(st) }

// transportRun is one transport's symbolic fwd+bwd on a fresh cluster.
type transportRun struct {
	clock           float64 // slowest rank's simulated clock
	exposed, hidden float64 // mean per-rank all-to-all time charged / covered
	routed, dropped int
	interNodeMB     float64 // traffic crossing node boundaries, all queries (traced runs only)
}

func (st *layerState) run(transport string, i int, tr *tracer) (transportRun, error) {
	seed := st.seed + uint64(int64(i))
	set := st.sets[((i%len(st.sets))+len(st.sets))%len(st.sets)]

	end := tr.begin("simrt.new_cluster", driverTID)
	c := newCluster(st.m, st.ep, seed)
	end()
	engineLayer := "netsim"
	if st.event {
		engineLayer = "devent"
		end = tr.begin("topology.rail_graph", driverTID)
		g := railGraph(st.m, st.ep)
		end()
		end = tr.begin("devent.new", driverTID)
		setClusterEngine(c, newEventEngine(g))
		end()
	}
	var counting *countingEngine
	if tr != nil {
		counting = newCountingEngine(clusterEngine(c), tr, engineLayer)
		setClusterEngine(c, counting)
	}
	g := worldGroup(c)
	var d *dispatcher
	if transport == "rbd" {
		end = tr.begin("rbd.new_dispatcher", driverTID)
		d = newDispatcher(c, g, st.cfg)
		end()
	}

	counts := make([]layerCounts, st.ep)
	var objs uint64
	if tr != nil {
		objs = heapObjects()
	}
	end = tr.begin("simrt.run", driverTID)
	ranks, err := runCollect(c, func(r *rank) error {
		id := rankID(r)
		rt := set[id]
		switch transport {
		case "pft":
			end := tr.begin("moe.pft_fwdbwd", id+1)
			counts[id] = pftFwdBwd(r, g, st.cfg, st.s, rt, st.chunks)
			end()
		case "padded":
			end := tr.begin("moe.padded_fwdbwd", id+1)
			counts[id] = paddedFwdBwd(r, g, st.cfg, st.s, rt, st.chunks)
			end()
		case "rbd":
			end := tr.begin("rbd.fwd", id+1)
			fwd, n := rbdForward(r, d, st.cfg, st.s, rt, seed^uint64(id), st.chunks)
			end()
			counts[id] = n
			end = tr.begin("rbd.bwd", id+1)
			rbdBackward(r, d, st.cfg, fwd, st.chunks)
			end()
		}
		return nil
	})
	end()
	if err != nil {
		return transportRun{}, fmt.Errorf("%s: %w", transport, err)
	}
	if tr != nil && transport == "pft" {
		tr.count("moe.pft_allocs", float64(heapObjects()-objs))
	}

	out := transportRun{clock: maxClock(ranks)}
	if counting != nil {
		out.interNodeMB = float64(counting.interNodeBytes) / 1e6
	}
	if !finite(out.clock) || out.clock <= 0 {
		return out, fmt.Errorf("%s: simulated clock %g", transport, out.clock)
	}
	for id, r := range ranks {
		e, h := commTimes(r)
		out.exposed += e / float64(len(ranks))
		out.hidden += h / float64(len(ranks))
		out.routed += counts[id].routed
		out.dropped += counts[id].dropped
	}
	return out, nil
}

func (st *layerState) op(i int, tr *tracer) (opOut, error) {
	out := opOut{loss: math.NaN(), paperErrPct: math.NaN()}
	runs := map[string]transportRun{}
	for _, transport := range transports {
		r, err := st.run(transport, i, tr)
		if err != nil {
			return opOut{}, err
		}
		runs[transport] = r
		out.sim = append(out.sim, r.clock)
		out.simMs += r.clock * 1e3
	}
	if tr == nil {
		return out, nil
	}
	pft, padded, rbdRun := runs["pft"], runs["padded"], runs["rbd"]
	out.read = map[string]float64{
		"moe.sim_pft_ms":          pft.clock * 1e3,
		"moe.sim_padded_ms":       padded.clock * 1e3,
		"moe.sim_a2a_exposed_ms":  pft.exposed * 1e3,
		"moe.sim_a2a_hidden_ms":   pft.hidden * 1e3,
		"moe.overlap_efficiency":  share(pft.hidden, pft.hidden+pft.exposed),
		"moe.dropped_share":       share(float64(pft.dropped), float64(pft.dropped+pft.routed)),
		"rbd.sim_ms":              rbdRun.clock * 1e3,
		"rbd.sim_exposed_comm_ms": rbdRun.exposed * 1e3,
		"rbd.sim_hidden_comm_ms":  rbdRun.hidden * 1e3,
		"rbd.sim_inter_node_mb":   rbdRun.interNodeMB,
	}
	if st.event {
		out.read["devent.sim_step_ms"] = out.simMs
	}
	return out, nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func (st *layerState) replay() (opOut, error) { return st.op(0, nil) }

// extras reads rank 0's redundancy off its first routing set and, on the
// event workload, prices operation 0 with the analytic engine too, so the
// congestion the event engine adds is stated against the same inputs.
func (st *layerState) extras(tr *tracer) (map[string]float64, error) {
	c := newCluster(st.m, st.ep, st.seed)
	d := newDispatcher(c, worldGroup(c), st.cfg)
	out := map[string]float64{"rbd.redundancy_rate": redundancyRate(d, st.sets[0][0], 0)}
	if !st.event {
		return out, nil
	}
	analytic := *st
	analytic.event = false
	a, err := analytic.op(0, nil)
	if err != nil {
		return nil, err
	}
	e, err := st.op(0, nil)
	if err != nil {
		return nil, err
	}
	out["devent.sim_congestion_delta_pct"] = (e.simMs - a.simMs) / a.simMs * 100
	return out, nil
}

func (st *layerState) shapes() probeShapes {
	return probeShapes{world: st.ep, tokens: st.s, experts: st.cfg.NumExperts, topK: st.cfg.TopK, cfg: st.cfg}
}

// --- train_numeric --------------------------------------------------------

const (
	trainWarmupSteps = 3
	// maxImbalance is the largest |charged spans - clock| a step may report.
	maxImbalance = 1e-9
)

type trainState struct {
	seed     uint64
	pft, rbd *trainer
	// ckPFT and ckRBD are the trainers just before operation 0, which is
	// what replay restores.
	ckPFT, ckRBD *checkpoint
}

func newTrainerPair(seed uint64, tr *tracer) (pft, rbd *trainer, err error) {
	end := tr.begin("train.new_trainer", driverTID)
	pft, err = newTrainer("pft", seed)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.begin("train.new_trainer", driverTID)
	rbd, err = newTrainer("rbd", seed)
	end()
	return pft, rbd, err
}

func setupTrain(seed uint64, tr *tracer) (state, error) {
	pft, rbd, err := newTrainerPair(seed, tr)
	if err != nil {
		return nil, err
	}
	return &trainState{seed: seed, pft: pft, rbd: rbd}, nil
}

// warmup steps both trainers past their first iterations (pools fill,
// momentum builds) and checkpoints them where operation 0 starts.
func (st *trainState) warmup() error {
	for i := 0; i < trainWarmupSteps; i++ {
		if err := warmupOp(st); err != nil {
			return err
		}
	}
	st.ckPFT, st.ckRBD = trainerCheckpoint(st.pft), trainerCheckpoint(st.rbd)
	return nil
}

// op steps both trainers once; i only labels the spans, the trainers carry
// their own state from step to step.
func (st *trainState) op(_ int, tr *tracer) (opOut, error) {
	end := tr.begin("train.step_pft", driverTID)
	p, err := trainerStep(st.pft)
	end()
	if err != nil {
		return opOut{}, fmt.Errorf("pft: %w", err)
	}
	end = tr.begin("train.step_rbd", driverTID)
	r, err := trainerStep(st.rbd)
	end()
	if err != nil {
		return opOut{}, fmt.Errorf("rbd: %w", err)
	}
	for _, s := range []trainOut{p, r} {
		if !finite(s.loss, s.simS) || s.simS <= 0 {
			return opOut{}, fmt.Errorf("non-finite step: loss %g, clock %g", s.loss, s.simS)
		}
		if s.maxImbalance > maxImbalance {
			return opOut{}, fmt.Errorf("trace imbalance %g s exceeds %g", s.maxImbalance, maxImbalance)
		}
	}
	out := opOut{
		sim:         []float64{p.loss, p.simS, r.loss, r.simS},
		simMs:       (p.simS + r.simS) * 1e3,
		loss:        (p.loss + r.loss) / 2,
		paperErrPct: math.NaN(),
	}
	if tr != nil {
		out.read = map[string]float64{
			"train.sim_step_ms":           (p.simS + r.simS) / 2 * 1e3,
			"train.sim_comm_in_flight_ms": (p.commInFlightS + r.commInFlightS) / 2 * 1e3,
			"train.max_imbalance":         math.Max(p.maxImbalance, r.maxImbalance),
		}
	}
	return out, nil
}

func (st *trainState) replay() (opOut, error) {
	if err := trainerRestore(st.pft, st.ckPFT); err != nil {
		return opOut{}, err
	}
	if err := trainerRestore(st.rbd, st.ckRBD); err != nil {
		return opOut{}, err
	}
	return st.op(0, nil)
}

func (st *trainState) extras(*tracer) (map[string]float64, error) { return nil, nil }

func (st *trainState) shapes() probeShapes {
	cfg := trainerLayerConfig()
	return probeShapes{world: trainWorld, tokens: trainTokens, experts: trainExperts, topK: trainTopK, cfg: cfg}
}

// --- reference pass -------------------------------------------------------

// The contract prints every end-to-end metric on every workload. Two of
// them have a native value on one workload only (paper_err_pct on
// step_sweep's operations, final_loss on train_numeric's trainers);
// everywhere else they come from this short, untimed pass. It is not part
// of the workload, so it does not take the run's seed: it reruns the
// configuration the repo publishes its numbers at, seed 42
// (bench.DefaultOptions), and is the same on every workload and every
// run. There the two metrics move only when the simulated model or the
// numeric arithmetic changes, and then exactly.
const referenceSeed = 42

// referencePaperErr simulates the two Fig. 10a points the paper gives
// numbers for (X-MoE 48.26 and Tutel 40.46 TFLOPs/GPU at 16 GPUs) and
// returns the mean relative error in percent.
func referencePaperErr() (float64, error) {
	x, t, err := newStepPoints(nil)
	if err != nil {
		return 0, err
	}
	out, err := (&stepState{seed: referenceSeed, xmoe: x, tutel: t}).op(0, nil)
	return out.paperErrPct, err
}

const referenceTrainSteps = 2

// referenceLoss trains a fresh PFT and RBD trainer pair for
// referenceTrainSteps steps and returns their mean loss.
func referenceLoss() (float64, error) {
	pft, rbd, err := newTrainerPair(referenceSeed, nil)
	if err != nil {
		return 0, err
	}
	st := &trainState{pft: pft, rbd: rbd}
	var out opOut
	for i := 0; i < referenceTrainSteps; i++ {
		if out, err = st.op(i, nil); err != nil {
			return 0, err
		}
	}
	return out.loss, nil
}
