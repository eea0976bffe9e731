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

// AblationPilotResult compares pilot-selection strategies.
type AblationPilotResult struct {
	RandomA2A, FirstExpertA2A float64 // mean S1 a2a seconds per rank
}

// AblationPilotSelection quantifies §4.2's design note: random pilot
// selection balances the Stage-1 all-to-all, whereas always choosing the
// smallest expert ID within a node concentrates pilot traffic on the
// lowest-expert ranks and increases the collective's bottleneck time.
func AblationPilotSelection(w io.Writer, opts Options) AblationPilotResult {
	m := topology.Frontier()
	cfg := moe.Config{
		NumExperts: 256, TopK: 8, HModel: 7168, HFFN: 2048,
		CapacityFactor: 100, BytesPerElem: 2,
	}
	sTokens := 1024
	if opts.Quick {
		sTokens = 384
	}

	run := func(policy rbd.PilotPolicy) float64 {
		return meanStageTime(runDispatch(dispatchSpec{machine: m, cfg: cfg, world: 32, s: sTokens,
			pilots: policy, seed: opts.Seed}), rbd.StageS1A2A)
	}

	res := AblationPilotResult{
		RandomA2A:      run(rbd.PilotRandom),
		FirstExpertA2A: run(rbd.PilotFirstExpert),
	}
	header(w, "Ablation: RBD pilot selection strategy (Large layer, 32 GPUs)")
	t := newTable("strategy", "S1 inter-node a2a (ms)")
	t.add("random (paper)", ms(res.RandomA2A))
	t.add("smallest expert ID", ms(res.FirstExpertA2A))
	t.write(w)
	fmt.Fprintln(w, "  paper (§4.2): biased pilot choice 'will significantly increase the alltoall latency'")
	return res
}

// AblationCapacityResult sweeps the expert capacity factor.
type AblationCapacityResult struct {
	Factors  []float64
	DropFrac []float64 // dropped fraction of assignments
	MemGB    []float64 // per-layer activation memory, padded pipeline
}

// AblationCapacityFactor sweeps the GShard capacity factor: smaller
// factors drop more tokens (hurting quality, §5.6) while larger factors
// inflate the padded pipeline's buffers (the waste PFT removes). X-MoE's
// padding-free memory is insensitive to the factor until capacity binds.
func AblationCapacityFactor(w io.Writer, opts Options) AblationCapacityResult {
	res := AblationCapacityResult{Factors: []float64{0.5, 1.0, 1.25, 2.0, 4.0}}
	const s, e, k = 2048, 64, 6
	sh := model.Small()
	rt := moe.SyntheticRouting(tensor.NewRNG(opts.Seed), s, e, k, 0.8)

	header(w, "Ablation: expert capacity factor (Small config, skewed routing)")
	t := newTable("factor", "dropped %", "padded act (GiB/layer)", "PFT act (GiB/layer)")
	for _, f := range res.Factors {
		capTokens := int(f*float64(s)*float64(k)/float64(e) + 0.999999)
		pft := moe.BuildPFT(rt, e, capTokens, moe.DropByCapacityWeight)
		dropFrac := float64(pft.Dropped) / float64(s*k)
		res.DropFrac = append(res.DropFrac, dropFrac)

		mkMem := func(pipe memmodel.Pipeline) float64 {
			st := baselines.For(baselines.DeepSpeedMoE, topology.Frontier()).MemSetup(
				parallel.Plan{World: 64, TP: 1, EP: 64, ZeROStage: 1}, 1)
			st.CapacityFactor = f
			st.Pipeline = pipe
			return float64(memmodel.MoELayer(sh, st, s).Total()) / (1 << 30)
		}
		padded := mkMem(memmodel.PipelinePadded)
		pftMem := mkMem(memmodel.PipelinePFT)
		res.MemGB = append(res.MemGB, padded)
		t.add(fmt.Sprintf("%.2f", f),
			fmt.Sprintf("%.1f", dropFrac*100),
			fmt.Sprintf("%.3f", padded),
			fmt.Sprintf("%.3f", pftMem))
	}
	t.write(w)
	fmt.Fprintln(w, "  padded buffers grow linearly with the factor; PFT memory is bounded by the")
	fmt.Fprintln(w, "  real routed tokens (the paper's padding-free motivation, §4.1)")
	return res
}

// AblationRBDByEPResult records RBD's dispatch-communication saving per EP
// size.
type AblationRBDByEPResult struct {
	EPSizes []int
	Saving  []float64 // fractional reduction of dispatch a2a time
}

// AblationRBDByEPSize extends Fig. 12 across EP sizes: RBD's benefit
// tracks the redundancy rate (Fig. 4), shrinking as experts spread over
// more nodes.
func AblationRBDByEPSize(w io.Writer, opts Options) AblationRBDByEPResult {
	m := topology.Frontier()
	cfg := moe.Config{
		NumExperts: 256, TopK: 8, HModel: 4096, HFFN: 2048,
		CapacityFactor: 100, BytesPerElem: 2,
	}
	sTokens := 512
	if opts.Quick {
		sTokens = 256
	}
	eps := []int{16, 32, 64}
	if opts.Quick {
		eps = eps[:2]
	}

	res := AblationRBDByEPResult{EPSizes: eps}
	header(w, "Ablation: RBD dispatch-communication saving vs EP size (256 experts, k=8)")
	t := newTable("EP size", "redundancy %", "plain a2a (ms)", "RBD S1+S2 (ms)", "saving %")
	for _, ep := range eps {
		plainT := rbdDispatchTime(m, cfg, ep, sTokens, opts.Seed, false)
		rbdT := rbdDispatchTime(m, cfg, ep, sTokens, opts.Seed, true)
		saving := 1 - rbdT/plainT
		res.Saving = append(res.Saving, saving)
		red := rbd.ExpectedRedundancyRate(cfg.NumExperts, cfg.TopK, ep/m.GPUsPerNode)
		t.add(fmt.Sprint(ep), fmt.Sprintf("%.1f", red*100),
			ms(plainT), ms(rbdT), fmt.Sprintf("%.1f", saving*100))
	}
	t.write(w)
	return res
}

// AblationOverlapResult records the chunked comm/compute-overlap sweep
// for one model point: simulated layer time per chunk count and pipeline.
type AblationOverlapResult struct {
	Model  string
	EP     int
	Chunks []int
	Kinds  []transport.Kind
	// Ms[i][j] is Kinds[i]'s layer time at Chunks[j].
	Ms [][]float64
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
func AblationOverlap(w io.Writer, opts Options) []AblationOverlapResult {
	m := topology.Frontier()
	type pt struct {
		shape model.Shape
		ep    int
	}
	points := []pt{{model.Large(), 64}}
	if opts.Quick {
		points = []pt{{model.Large(), 16}}
	}
	chunkCounts := opts.chunkCounts()

	var out []AblationOverlapResult
	for _, p := range points {
		cfg := moe.LayerOf(p.shape)
		s := p.shape.SeqLen
		if opts.Quick {
			s = 2048
		}
		res := AblationOverlapResult{Model: p.shape.Name, EP: p.ep, Chunks: chunkCounts,
			Kinds: transport.Kinds(), Ms: make([][]float64, len(transport.Kinds()))}
		for _, chunks := range chunkCounts {
			for i, kind := range res.Kinds {
				ranks := runLayer(layerSpec{machine: m, cfg: cfg, world: p.ep, s: s, kind: kind,
					fwdChunks: chunks, engine: opts.Engine, seed: opts.Seed})
				res.Ms[i] = append(res.Ms[i], simrt.MaxClock(ranks)*1e3)
			}
		}
		out = append(out, res)

		header(w, fmt.Sprintf("Ablation: chunked comm/compute overlap, %s layer, EP=%d (Fig. 11 config, ms)", p.shape.Name, p.ep))
		cols := []string{"chunks"}
		for _, kind := range res.Kinds {
			cols = append(cols, kind.String(), "speedup")
		}
		t := newTable(cols...)
		for j, chunks := range chunkCounts {
			row := []string{fmt.Sprintf("C=%d", chunks)}
			if chunks == 1 {
				row[0] += " (blocking)"
			}
			for i, kind := range res.Kinds {
				row = append(row, fmt.Sprintf("%.2f", res.Ms[i][j]), fmt.Sprintf("%.2fx", res.Ms[i][0]/res.Ms[i][j]))
				if chunks == 4 {
					prefix := fmt.Sprintf("abl_overlap_%s_%v_c4_", p.shape.Name, kind)
					RecordMetric(prefix+"speedup", res.Ms[i][0]/res.Ms[i][j])
					RecordMetric(prefix+"ms", res.Ms[i][j])
				}
			}
			t.add(row...)
		}
		t.write(w)
	}
	fmt.Fprintln(w, "  overlap on (C>=2) hides dispatch/combine all-to-alls behind expert GEMMs;")
	fmt.Fprintln(w, "  numeric-mode chunked output is bit-identical to blocking (determinism tests)")
	return out
}

// AblationOverlapBackwardResult records the fwd-only vs fwd+bwd overlap
// sweep for one pipeline: simulated fwd+bwd step time per chunk count.
type AblationOverlapBackwardResult struct {
	Pipeline  transport.Kind
	EP        int
	Chunks    []int
	FwdOnlyMs []float64 // forward overlapped at C, backward blocking
	FwdBwdMs  []float64 // both passes overlapped at C
}

// AblationOverlapBackward extends abl-overlap to the whole training step
// (the PR-5 tentpole): a full fwd+bwd on the Fig. 11 Large-model layer at
// EP=64 (EP=16 in quick mode), sweeping C with the forward pass always
// overlapped at C but the backward either blocking (fwd-only, what PR 2
// could do) or overlapped at the same C. Piper and the Megatron Core MoE
// overlap report both find the backward half of the step is where most of
// the hideable all-to-all time lives — the fwd+bwd column must therefore
// beat both the blocking baseline (C=1) and the fwd-only column. The RBD
// rows run the native hierarchical backward (reversed C2/C1 and S2/S1
// exchanges), so its backward bytes follow the same per-link-class
// accounting as its forward instead of a mirrored flat estimate.
func AblationOverlapBackward(w io.Writer, opts Options) []AblationOverlapBackwardResult {
	m := topology.Frontier()
	shape := model.Large()
	ep := 64
	s := shape.SeqLen
	if opts.Quick {
		ep = 16
		s = 2048
	}
	cfg := moe.LayerOf(shape)
	chunkCounts := opts.chunkCounts()

	var out []AblationOverlapBackwardResult
	for _, pipe := range transport.Kinds() {
		res := AblationOverlapBackwardResult{Pipeline: pipe, EP: ep, Chunks: chunkCounts}
		for _, chunks := range chunkCounts {
			res.FwdOnlyMs = append(res.FwdOnlyMs, StepClock(m, cfg, ep, s, pipe, chunks, 1, opts.Seed, opts.Engine)*1e3)
			res.FwdBwdMs = append(res.FwdBwdMs, StepClock(m, cfg, ep, s, pipe, chunks, chunks, opts.Seed, opts.Engine)*1e3)
		}
		out = append(out, res)

		header(w, fmt.Sprintf("Ablation: backward-pass overlap, %v fwd+bwd step, %s layer, EP=%d (ms)", pipe, shape.Name, ep))
		t := newTable("chunks", "fwd-only overlap", "speedup", "fwd+bwd overlap", "speedup")
		base := res.FwdBwdMs[0] // C=1 everywhere: the fully blocking step
		for i, chunks := range chunkCounts {
			label := fmt.Sprintf("C=%d", chunks)
			if chunks == 1 {
				label += " (blocking)"
			}
			t.add(label,
				fmt.Sprintf("%.2f", res.FwdOnlyMs[i]), fmt.Sprintf("%.2fx", base/res.FwdOnlyMs[i]),
				fmt.Sprintf("%.2f", res.FwdBwdMs[i]), fmt.Sprintf("%.2fx", base/res.FwdBwdMs[i]))
		}
		t.write(w)
		for i, chunks := range chunkCounts {
			if chunks == 4 {
				prefix := fmt.Sprintf("abl_overlap_bwd_%v_c4_", pipe)
				RecordMetric(prefix+"speedup", base/res.FwdBwdMs[i])
				RecordMetric(prefix+"fwdonly_speedup", base/res.FwdOnlyMs[i])
				RecordMetric(prefix+"ms", res.FwdBwdMs[i])
			}
		}
	}
	fmt.Fprintln(w, "  fwd-only overlap = PR-2 state (backward fully blocking); fwd+bwd chunks the")
	fmt.Fprintln(w, "  mirrored backward all-to-alls too and defers the dW GEMMs to hide the tail;")
	fmt.Fprintln(w, "  chunked gradients are bit-identical to blocking (determinism tests)")
	return out
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
// for one EP group, with or without RBD.
func rbdDispatchTime(m *topology.Machine, cfg moe.Config, ep, sTokens int, seed uint64, useRBD bool) float64 {
	if useRBD {
		return meanStageTime(runDispatch(dispatchSpec{machine: m, cfg: cfg, world: ep, s: sTokens, seed: seed}),
			rbd.StageS1A2A, rbd.StageS2A2A)
	}
	return meanStageTime(runLayer(layerSpec{machine: m, cfg: cfg, world: ep, s: sTokens,
		kind: transport.PFT, fwdChunks: 1, seed: seed}), moe.StageDispatchA2A)
}
