package bench

import (
	"fmt"
	"io"

	"xmoe/internal/baselines"
	"xmoe/internal/memmodel"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/netsim"
	"xmoe/internal/parallel"
	"xmoe/internal/rbd"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// Table1SizeEquivalence regenerates Tables 1-2: the Mconv/Mspec pair has
// identical parameter budgets while the dispatch/combine activations grow
// by the fine-grained factor m and the FFN intermediates stay constant.
func Table1SizeEquivalence(w io.Writer, _ Options) []Row {
	conv, spec := model.ConvSpecPair()
	st := baselines.For(baselines.XMoE, topology.Frontier()).MemSetup(
		parallel.Plan{World: 256, TP: 1, EP: conv.NumExperts, ZeROStage: 1}, 2)
	const s = 4096
	bc := memmodel.MoELayer(conv, st, s)
	stSpec := st
	stSpec.Plan.EP = spec.NumExperts
	bs := memmodel.MoELayer(spec, stSpec, s)
	activated := func(sh model.Shape) float64 {
		return float64(int64(sh.TopK) * 2 * int64(sh.HModel) * int64(sh.HFFN))
	}

	var rows []Row
	for _, q := range []struct {
		name, unit string
		conv, spec float64
	}{
		{"expert params/layer", "count", float64(conv.ExpertParamsPerLayer()), float64(spec.ExpertParamsPerLayer())},
		{"activated params/tok", "count", activated(conv), activated(spec)},
		{"A_dispatch", "GiB", gib(bc.ADispatch), gib(bs.ADispatch)},
		{"A_interm", "GiB", gib(bc.AInterm0), gib(bs.AInterm0)},
	} {
		rows = append(rows, Row{q.name + "/Mconv", q.unit, q.conv, 0}, Row{q.name + "/Mspec", q.unit, q.spec, 0},
			Row{q.name + "/ratio", "x", q.spec / q.conv, 0})
	}
	return render(w, "Table 1/2: size-equivalent Mconv vs Mspec (m=8)", rows,
		"paper: params and activated params equal; A_dispatch grows ~m=8x; A_interm constant")
}

// Figure3MemoryDistribution regenerates Fig. 3: the MoE-layer memory
// distribution of Mconv vs Mspec on 256 GPUs with ZeRO-1 DP + EP (EP =
// number of experts), showing the bottleneck shifting from model states /
// intermediates to dispatch and combine.
func Figure3MemoryDistribution(w io.Writer, _ Options) []Row {
	xmoe := baselines.For(baselines.XMoE, topology.Frontier())
	conv, spec := model.ConvSpecPair()
	const s = 4096
	var rows []Row
	for _, p := range []struct {
		name      string
		sh        model.Shape
		paperDisp float64 // GiB
	}{{"Mconv", conv, 0}, {"Mspec", spec, 0.35}} {
		st := xmoe.MemSetup(parallel.Plan{World: 256, TP: 1, EP: p.sh.NumExperts, ZeROStage: 1}, 2)
		// Single-layer model states per GPU.
		one := p.sh
		one.Layers = 1
		b := memmodel.MoELayer(p.sh, st, s)
		rows = append(rows,
			Row{p.name + "/states", "GiB", gib(memmodel.ModelStates(one, st)), 0},
			Row{p.name + "/A_dispatch", "GiB", gib(b.ADispatch), p.paperDisp},
			Row{p.name + "/A_combine", "GiB", gib(b.ACombine), 0},
			Row{p.name + "/A0_interm", "GiB", gib(b.AInterm0), 0},
			Row{p.name + "/A1_interm", "GiB", gib(b.AInterm1), 0})
	}
	return render(w, "Figure 3: MoE layer memory distribution (GiB/GPU)", rows,
		"paper: Mspec is dispatch/combine-bound; Mconv is states/interm-bound")
}

// Figure4Redundancy regenerates Fig. 4: the fraction of dispatched token
// copies that are node-level redundant for a DeepSeek-style 256-expert,
// k=8 configuration, as EP size grows — both the closed form and a
// measurement over uniform synthetic routing (the closed form's
// assumption).
func Figure4Redundancy(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	const e, k = 256, 8
	tokens := 4000
	if opts.Quick {
		tokens = 600
	}
	var rows []Row
	for _, p := range []struct {
		ep    int
		paper float64 // %
	}{{16, 75.1}, {32, 54.8}, {64, 33.8}, {128, 18.5}, {256, 9.2}} {
		nodes := p.ep / m.GPUsPerNode
		rt := moe.SyntheticRouting(tensor.NewRNG(opts.Seed+uint64(p.ep)), tokens, e, k, 0)
		eprNode := e / nodes
		red := rbd.AnalyzeRedundancy(rt, func(ex int) int { return ex / eprNode }, -1)
		rows = append(rows,
			Row{fmt.Sprint("EP=", p.ep, "/analytic"), "%", rbd.ExpectedRedundancyRate(e, k, nodes) * 100, 0},
			Row{fmt.Sprint("EP=", p.ep, "/measured"), "%", red.Rate() * 100, p.paper})
	}
	return render(w, "Figure 4: redundancy rate of dispatched tokens (256 experts, k=8)", rows)
}

// Table4ActivationMemory regenerates Table 4: per-MoE-layer activation
// memory of the Large model on 256 GPUs with EP=64.
func Table4ActivationMemory(w io.Writer, _ Options) []Row {
	sh := model.Large()
	const s = 4096
	plan := parallel.Plan{World: 256, TP: 1, EP: 64, ZeROStage: 1}
	mk := func(sys baselines.System) float64 {
		st := baselines.For(sys, topology.Frontier()).MemSetup(plan, 1)
		return gib(memmodel.MoELayer(sh, st, s).Total())
	}
	return render(w, "Table 4: per-MoE-layer activation memory, Large model, 256 GPUs", []Row{
		{"DS-MoE", "GiB", mk(baselines.DeepSpeedMoE), 2.81},
		{"Tutel", "GiB", mk(baselines.Tutel), 1.95},
		{"X-MoE", "GiB", mk(baselines.XMoE), 1.21},
		{"theoretical", "GiB", 4 * 1.25 * 8 * 4096 * 7168 / float64(1<<30), 1.125},
	})
}

// Figure13SSMBMemory regenerates Fig. 13: maximum per-GPU memory of the
// Large model across TP degrees, with and without sequence-sharded MoE
// blocks.
func Figure13SSMBMemory(w io.Writer, _ Options) []Row {
	sh := model.Large()
	xmoe := baselines.For(baselines.XMoE, topology.Frontier())
	var rows []Row
	for _, tp := range []int{1, 2, 4} {
		mk := func(ssmb bool) float64 {
			st := xmoe.MemSetup(parallel.Plan{World: 256, TP: tp, EP: 64, ZeROStage: 1, SSMB: ssmb}, 1)
			return float64(memmodel.ModelStates(sh, st)+memmodel.Activations(sh, st)) / (1 << 30)
		}
		with, without := mk(true), mk(false)
		k := fmt.Sprint("TP=", tp)
		rows = append(rows, Row{k + "/w/o SSMB", "GiB", without, 0}, Row{k + "/w/ SSMB", "GiB", with, 0},
			Row{k + "/saving", "%", (1 - with/without) * 100, 0})
	}
	return render(w, "Figure 13: per-GPU memory w/ and w/o SSMB, Large model, EP=64", rows,
		"paper: SSMB's saving grows with TP degree (Fig. 13's widening gap)")
}

// Figure17AdvantageRegions regenerates Fig. 17: which real MoE
// architectures fall in SSMB's advantage region vs TED's, for sequence
// lengths 2k/4k/8k at capacity factor 1, and the top-k border of the
// region at H_FFN = 4096.
func Figure17AdvantageRegions(w io.Writer, _ Options) []Row {
	const c = 1.0
	var rows []Row
	for _, s := range []int{2048, 4096, 8192} {
		for _, md := range []struct {
			name       string
			topK, hFFN int
		}{{"Mixtral-8x7b", 2, 14336}, {"Mixtral-8x22b", 2, 16384}, {"DeepSeek-MoE", 6, 1408},
			{"DeepSeek-v3", 8, 2048}, {"Arctic", 2, 4864}} {
			ssmb := 0.0
			if memmodel.SSMBAdvantage(md.topK, md.hFFN, c, s) {
				ssmb = 1
			}
			rows = append(rows, Row{fmt.Sprint("S=", s, "/", md.name), "bool", ssmb, 0})
		}
		rows = append(rows, Row{fmt.Sprint("S=", s, "/border"), "top-k", memmodel.AdvantageBorderTopK(4096, c, s), 0})
	}
	return render(w, "Figure 17: SSMB advantage over TED (yes = SSMB, no = TED), c=1", rows,
		"paper: DeepSeek models favour SSMB at all S; Mixtral favours TED; Arctic flips with S")
}

// AppendixC1Placement regenerates the Appendix C.1 analysis: on 64 GPUs
// with 8 experts and EP=8, DP-first placement moves gradient
// synchronisation onto intra-node links at the cost of inter-node token
// routing, and wins when DP volume dominates.
func AppendixC1Placement(w io.Writer, _ Options) []Row {
	m := topology.Frontier()
	net := netsim.New(m, 1)
	net.DisableCongestion = true

	const world, ep = 64, 8
	// Large-MoE regime: 1 GiB of expert gradients per rank, 64 MiB of
	// routed tokens per a2a.
	const gradBytes = 1 << 30
	const a2aBytes = 64 << 20

	var rows []Row
	for _, placement := range []parallel.Placement{parallel.EPFirst, parallel.DPFirst} {
		plan := parallel.Plan{World: world, TP: 1, EP: ep, Placement: placement, ZeROStage: 1}
		sync := net.AllReduce(plan.ExpertDPGroups()[0], gradBytes).Seconds
		a2a := net.AlltoAll(plan.EPGroups()[0], a2aBytes/ep).Seconds
		k := placement.String()
		rows = append(rows, Row{k + "/grad sync", "ms", sync * 1e3, 0}, Row{k + "/EP a2a", "ms", a2a * 1e3, 0},
			Row{k + "/total", "ms", (sync + a2a) * 1e3, 0})
	}
	return render(w, "Appendix C.1: EP-first vs DP-first placement (64 GPUs, 8 experts, EP=8)", rows,
		"paper: DP-first keeps replicas intra-node, winning for large MoEs on Frontier")
}
