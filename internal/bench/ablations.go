package bench

import (
	"fmt"
	"io"

	"xmoe/internal/baselines"
	"xmoe/internal/memmodel"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// AblationPilotSelection quantifies §4.2's design note: random pilot
// selection balances the Stage-1 all-to-all, whereas always choosing the
// smallest expert ID within a node concentrates pilot traffic on the
// lowest-expert ranks and increases the collective's bottleneck time.
func AblationPilotSelection(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	cfg := moe.Config{
		NumExperts: 256, TopK: 8, HModel: 7168, HFFN: 2048,
		CapacityFactor: 100, BytesPerElem: 2,
	}
	sTokens := 1024
	if opts.Quick {
		sTokens = 384
	}

	run := func(policy moe.PilotPolicy) float64 {
		return meanStageTime(runLayer(layerSpec{machine: m, cfg: cfg, world: 32, s: sTokens,
			kind: transport.RBD, fwdChunks: 1, pilots: policy, seed: opts.Seed}), rbd.StageS1A2A) * 1e3
	}
	return render(w, "Ablation: RBD pilot selection strategy, S1 inter-node a2a (Large layer, 32 GPUs)", []Row{
		{"random (paper)", "ms", run(moe.PilotRandom), 0},
		{"smallest expert ID", "ms", run(moe.PilotFirstExpert), 0},
	}, "paper (§4.2): biased pilot choice 'will significantly increase the alltoall latency'")
}

// AblationCapacityFactor sweeps the GShard capacity factor: smaller
// factors drop more tokens (hurting quality, §5.6) while larger factors
// inflate the padded pipeline's buffers (the waste PFT removes). X-MoE's
// padding-free memory is insensitive to the factor until capacity binds.
func AblationCapacityFactor(w io.Writer, opts Options) []Row {
	const s = 2048
	sh := model.Small()
	cfg := moe.LayerOf(sh)
	rt := moe.SyntheticRouting(tensor.NewRNG(opts.Seed), s, cfg.NumExperts, cfg.TopK, 0.8)

	var rows []Row
	for _, f := range []float64{0.5, 1.0, 1.25, 2.0, 4.0} {
		cfg.CapacityFactor = f
		pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
		mkMem := func(kind transport.Kind) float64 {
			st := baselines.For(baselines.DeepSpeedMoE, topology.Frontier()).MemSetup(
				parallel.Plan{World: 64, TP: 1, EP: 64, ZeROStage: 1}, 1)
			st.CapacityFactor = f
			st.Transport = kind
			return gib(memmodel.MoELayer(sh, st, s).Total())
		}
		key := fmt.Sprint("factor=", f, "/")
		rows = append(rows, Row{key + "dropped", "%", float64(pft.Dropped) / float64(s*cfg.TopK) * 100, 0},
			Row{key + "padded act", "GiB", mkMem(transport.Padded), 0},
			Row{key + "PFT act", "GiB", mkMem(transport.PFT), 0})
	}
	return render(w, "Ablation: expert capacity factor (Small config, skewed routing, activations per layer)", rows,
		"padded buffers grow linearly with the factor; PFT memory is bounded by the",
		"real routed tokens (the paper's padding-free motivation, §4.1)")
}

// AblationRBDByEPSize extends Fig. 12 across EP sizes: RBD's benefit
// tracks the redundancy rate (Fig. 4), shrinking as experts spread over
// more nodes.
func AblationRBDByEPSize(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	cfg := moe.Config{
		NumExperts: 256, TopK: 8, HModel: 4096, HFFN: 2048,
		CapacityFactor: 100, BytesPerElem: 2,
	}
	sTokens := 512
	eps := []int{16, 32, 64}
	if opts.Quick {
		sTokens = 256
		eps = eps[:2]
	}

	var rows []Row
	for _, ep := range eps {
		plainT := rbdDispatchTime(m, cfg, ep, sTokens, opts.Seed, false)
		rbdT := rbdDispatchTime(m, cfg, ep, sTokens, opts.Seed, true)
		key := fmt.Sprint("EP=", ep, "/")
		rows = append(rows,
			Row{key + "redundancy", "%", rbd.ExpectedRedundancyRate(cfg.NumExperts, cfg.TopK, ep/m.GPUsPerNode) * 100, 0},
			Row{fmt.Sprint(key, transport.PFT, " a2a"), "ms", plainT * 1e3, 0},
			Row{fmt.Sprint(key, transport.RBD, " S1+S2 a2a"), "ms", rbdT * 1e3, 0},
			Row{key + "saving", "%", (1 - rbdT/plainT) * 100, 0})
	}
	return render(w, "Ablation: RBD dispatch-communication saving vs EP size (256 experts, k=8)", rows)
}

// AblationOverlap sweeps the chunked comm/compute-overlap execution
// (overlap off = C=1 blocking, overlap on with C in {2,4,8}) over the
// Fig. 11 Large-model layer, whose inter-node all-to-alls dominate step
// time (the paper reports the a2a share cut ~50.7%): EP=64 across 8
// Frontier nodes (EP=16 across 2 nodes in quick mode). Chunking hides
// dispatch/combine all-to-all time behind the expert GEMMs (FastMoE smart
// scheduling, Megatron Core MoE overlap), so every C >= 2 must beat the
// blocking pipeline in this regime. Single-node EP groups (the Small
// model's EP=8) are deliberately not swept: their exchanges ride the fast
// intra-node links, where per-chunk launch and message latencies outweigh
// the little communication there is to hide.
func AblationOverlap(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Large()
	ep, s := 64, shape.SeqLen
	if opts.Quick {
		ep, s = 16, 2048
	}
	cfg := moe.LayerOf(shape)

	var rows []Row
	blocking := map[transport.Kind]float64{}
	for _, chunks := range opts.chunkCounts() { // C=1 first
		for _, kind := range transport.Kinds() {
			t := simrt.MaxClock(runLayer(layerSpec{machine: m, cfg: cfg, world: ep, s: s, kind: kind,
				fwdChunks: chunks, engine: opts.Engine, seed: opts.Seed})) * 1e3
			if chunks == 1 {
				blocking[kind] = t
			}
			key := fmt.Sprint("C=", chunks, "/", kind)
			rows = append(rows, Row{key, "ms", t, 0}, Row{key + "/speedup", "x", blocking[kind] / t, 0})
		}
	}
	return render(w, "Ablation: chunked comm/compute overlap, Large layer, EP=64 (16 with -quick), C=1 blocking", rows,
		"overlap on (C>=2) hides dispatch/combine all-to-alls behind expert GEMMs;",
		"numeric-mode chunked output is bit-identical to blocking (determinism tests)")
}

// AblationOverlapBackward extends abl-overlap to the whole training step:
// a full fwd+bwd on the Fig. 11 Large-model layer at EP=64 (EP=16 in
// quick mode), sweeping C with the forward pass always overlapped at C but
// the backward either blocking (fwd-only) or overlapped at the same C.
// Piper and the Megatron Core MoE overlap report both find the backward
// half of the step is where most of the hideable all-to-all time lives —
// the fwd+bwd rows must therefore beat both the blocking baseline (C=1)
// and the fwd-only rows. The RBD rows run the native hierarchical backward
// (reversed C2/C1 and S2/S1 exchanges), so its backward bytes follow the
// same per-link-class accounting as its forward instead of a mirrored flat
// estimate.
func AblationOverlapBackward(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Large()
	ep, s := 64, shape.SeqLen
	if opts.Quick {
		ep, s = 16, 2048
	}
	cfg := moe.LayerOf(shape)

	var rows []Row
	for _, pipe := range transport.Kinds() {
		// base is the fully blocking step: C=1 in both passes, swept first.
		var base float64
		for _, chunks := range opts.chunkCounts() {
			fwdOnly := StepClock(m, cfg, ep, s, pipe, chunks, 1, opts.Seed, opts.Engine) * 1e3
			fwdBwd := StepClock(m, cfg, ep, s, pipe, chunks, chunks, opts.Seed, opts.Engine) * 1e3
			if chunks == 1 {
				base = fwdBwd
			}
			key := fmt.Sprint(pipe, "/C=", chunks, "/")
			rows = append(rows, Row{key + "fwd-only", "ms", fwdOnly, 0}, Row{key + "fwd-only speedup", "x", base / fwdOnly, 0},
				Row{key + "fwd+bwd", "ms", fwdBwd, 0}, Row{key + "fwd+bwd speedup", "x", base / fwdBwd, 0})
		}
	}
	return render(w, "Ablation: backward-pass overlap, fwd+bwd step, Large layer, EP=64 (16 with -quick)", rows,
		"fwd-only overlaps the forward at C and runs the backward blocking; fwd+bwd chunks the",
		"mirrored backward all-to-alls too and defers the dW GEMMs to hide the tail;",
		"chunked gradients are bit-identical to blocking (determinism tests)")
}

// StepClock measures one timing-only (symbolic) MoE fwd+bwd step of the
// given transport on a fresh world-rank cluster, with independent
// forward/backward overlap chunk counts (values below 1 mean 1), and
// returns the simulated wall-clock of the slowest rank. It is the harness
// behind AblationOverlapBackward and xmoe-train's "timing at scale" report,
// so the two always measure the same regime. engine names the cost engine
// per NewEngine ("" or "analytic" for the fast path).
func StepClock(m *topology.Machine, cfg moe.Config, world, s int, kind transport.Kind,
	fwdChunks, bwdChunks int, seed uint64, engine string) float64 {

	if bwdChunks < 1 {
		bwdChunks = 1
	}
	return simrt.MaxClock(runLayer(layerSpec{machine: m, cfg: cfg, world: world, s: s, kind: kind,
		fwdChunks: fwdChunks, bwdChunks: bwdChunks, engine: engine, seed: seed}))
}

// rbdDispatchTime measures mean dispatch-side communication time per rank
// of one forward-only, blocking layer over an EP group, with or without
// RBD.
func rbdDispatchTime(m *topology.Machine, cfg moe.Config, ep, sTokens int, seed uint64, useRBD bool) float64 {
	sp := layerSpec{machine: m, cfg: cfg, world: ep, s: sTokens, kind: transport.PFT, fwdChunks: 1, seed: seed}
	if useRBD {
		sp.kind = transport.RBD
		return meanStageTime(runLayer(sp), rbd.StageS1A2A, rbd.StageS2A2A)
	}
	return meanStageTime(runLayer(sp), moe.StageDispatchA2A)
}
