package main

import (
	"time"
)

// An isolated probe calls one public function of one layer in a closed
// loop at the workload's shapes, outside any operation, and reports the
// median time of a call. Probes run after the traced pass, so their
// allocations and cache traffic never reach an end-to-end number.

// probeBudget is how long one probe samples for; the slow probes (event
// engine queries, cluster runs) take a multiple of it.
const probeBudget = 80 * time.Millisecond

// probeNs returns the median nanoseconds of one fn call. Calls are timed
// in batches long enough for the clock's own cost to vanish; n counts
// calls from 0 so a probe can make each call's input distinct.
func probeNs(budget time.Duration, fn func(n int)) float64 {
	const minSample = 100 * time.Microsecond
	n, batch := 0, 1
	timeBatch := func() time.Duration {
		start := time.Now()
		for k := 0; k < batch; k++ {
			fn(n)
			n++
		}
		return time.Since(start)
	}
	for timeBatch() < minSample && batch < 1<<20 {
		batch *= 4
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || time.Now().Before(deadline) {
		samples = append(samples, float64(timeBatch())/float64(batch))
	}
	return median(samples)
}

// runProbes measures every isolated probe and returns the per-layer
// metrics they define.
func runProbes(seed uint64, sh probeShapes) (map[string]float64, error) {
	out := map[string]float64{}
	m := frontier()
	ktok := float64(sh.tokens) / 1e3

	// --- moe: routing generation and PFT construction --------------------
	out["moe.synthetic_routing_us_per_ktok"] = probeNs(2*probeBudget, func(n int) {
		syntheticRouting(seed+uint64(n), sh.tokens, sh.experts, sh.topK, stepRoutingSkew)
	}) / 1e3 / ktok
	rt := syntheticRouting(seed, sh.tokens, sh.experts, sh.topK, stepRoutingSkew)
	out["moe.routed_pft_us_per_ktok"] = probeNs(2*probeBudget, func(int) {
		routedPFT(rt, sh.cfg, sh.tokens)
	}) / 1e3 / ktok

	// --- simrt: what a Run and a rendezvous cost with nothing in them ----
	c := newCluster(m, sh.world, seed)
	g := worldGroup(c)
	var runErr error
	run := func(body func(r *rank)) func(int) {
		return func(int) {
			if _, err := runCollect(c, func(r *rank) error { body(r); return nil }); err != nil {
				runErr = err
			}
		}
	}
	emptyRun := probeNs(2*probeBudget, run(func(*rank) {}))
	out["simrt.run_empty_us_per_rank"] = emptyRun / 1e3 / float64(sh.world)
	const rendezvousPerRun = 16
	withA2A := probeNs(3*probeBudget, run(func(r *rank) {
		for k := 0; k < rendezvousPerRun; k++ {
			emptyAlltoAllV(r, g)
		}
	}))
	out["simrt.a2av_rendezvous_us"] = (withA2A - emptyRun) / rendezvousPerRun / 1e3

	// --- zero: one bucketed ZeRO-1 sync of the trainer's dense gradient --
	grads := make([][]float32, sh.world)
	for r := range grads {
		grads[r] = make([]float32, trainH)
	}
	out["zero.sync_host_ms"] = probeNs(2*probeBudget, run(func(r *rank) {
		zeroSync(r, g, grads[rankID(r)])
	})) / 1e6
	if runErr != nil {
		return nil, runErr
	}

	// --- netsim / devent: one cost query, memo hit and miss --------------
	ranks := make([]int, sh.world)
	bytes := make([][]int64, sh.world)
	for i := range ranks {
		ranks[i] = i
		bytes[i] = make([]int64, sh.world)
		for j := range bytes[i] {
			bytes[i][j] = int64(1<<16 + 97*i + 13*j)
		}
	}
	// A miss needs a matrix the memo has not seen: move one entry per call.
	fresh := func(n int) [][]int64 {
		bytes[0][sh.world-1] = int64(1<<20 + n)
		return bytes
	}
	analytic := newAnalyticEngine(m, seed, sh.world)
	out["netsim.a2av_miss_us"] = probeNs(probeBudget, func(n int) { queryAlltoAllV(analytic, ranks, fresh(n)) }) / 1e3
	out["netsim.a2av_hit_ns"] = probeNs(probeBudget, func(int) { queryAlltoAllV(analytic, ranks, bytes) })
	out["netsim.allreduce_miss_ns"] = probeNs(probeBudget, func(n int) { queryAllReduce(analytic, ranks, int64(1<<24+n)) })

	event := newEventEngine(railGraph(m, sh.world))
	out["devent.a2av_miss_ms"] = probeNs(4*probeBudget, func(n int) { queryAlltoAllV(event, ranks, fresh(n)) }) / 1e6
	out["devent.a2av_hit_us"] = probeNs(probeBudget, func(int) { queryAlltoAllV(event, ranks, bytes) }) / 1e3
	out["devent.allreduce_miss_ms"] = probeNs(2*probeBudget, func(n int) { queryAllReduce(event, ranks, int64(1<<24+n)) }) / 1e6

	// --- perfmodel: the GEMM-time memo ------------------------------------
	md := newGEMMModel(m)
	out["perfmodel.gemm_hit_ns"] = probeNs(probeBudget, func(int) { gemmSeconds(md, sh.tokens, sh.cfg.HModel, sh.cfg.HFFN) })
	out["perfmodel.gemm_miss_ns"] = probeNs(probeBudget, func(n int) { gemmSeconds(md, 1+n, sh.cfg.HModel, sh.cfg.HFFN) })

	probeTensor(seed, out)

	// --- train: checkpoint and restore on a spare trainer -----------------
	spare, err := newTrainer("pft", seed)
	if err != nil {
		return nil, err
	}
	var ck *checkpoint
	out["train.checkpoint_ms"] = probeNs(probeBudget, func(int) { ck = trainerCheckpoint(spare) }) / 1e6
	var restoreErr error
	out["train.restore_ms"] = probeNs(probeBudget, func(int) {
		if err := trainerRestore(spare, ck); err != nil {
			restoreErr = err
		}
	}) / 1e6
	if restoreErr != nil {
		return nil, restoreErr
	}

	// --- bench: the figure rung, one call each ----------------------------
	start := time.Now()
	figure10aQuick(seed)
	out["bench.fig10a_quick_s"] = time.Since(start).Seconds()
	start = time.Now()
	figure11Quick(seed)
	out["bench.fig11_quick_s"] = time.Since(start).Seconds()
	return out, nil
}

// probeTensor measures the numeric kernels at the shapes one rank of the
// numeric trainer runs them at: rows = the (token, expert) pairs a rank's
// two local experts receive, H = trainH, F = trainF.
func probeTensor(seed uint64, out map[string]float64) {
	const rows = trainTokens * trainTopK / 2 // per local expert
	x := randn(seed, rows, trainH)
	w1 := randn(seed+1, trainH, trainF)
	hid := newTensor(rows, trainF)
	dy := randn(seed+2, rows, trainF)
	dx := newTensor(rows, trainH)
	dw := newTensor(trainH, trainF)
	flops := 2 * float64(rows) * trainH * trainF

	// FLOPs per nanosecond is GFLOP/s.
	out["tensor.matmul_gflops"] = flops / probeNs(probeBudget, func(int) { matMulInto(hid, x, w1) })
	out["tensor.matmul_t_gflops"] = flops / probeNs(probeBudget, func(int) { matMulTInto(dx, dy, w1) })
	out["tensor.t_matmul_gflops"] = flops / probeNs(probeBudget, func(int) { tMatMulInto(dw, x, dy) })
	out["tensor.gelu_ns_per_elem"] = probeNs(probeBudget, func(int) { gelu(hid) }) / (rows * trainF)
	out["tensor.randn_ns_per_elem"] = probeNs(probeBudget, func(n int) { randn(seed+uint64(n), rows, trainF) }) / (rows * trainF)
	pool := newPool()
	out["tensor.pool_get_put_ns"] = probeNs(probeBudget, func(int) { poolGetPut(pool, rows, trainF) })
	out["tensor.parallel_for_us"] = probeNs(probeBudget, func(int) { parallelFor(rows, 8, func(lo, hi int) {}) }) / 1e3

	// Dispatch side: every token of a rank goes to topK experts.
	const pairs = trainTokens * trainTopK
	ids := make([]int, pairs)
	weights := make([]float32, pairs)
	for i := range ids {
		ids[i] = i % trainTokens
		weights[i] = 0.25
	}
	tokens := randn(seed+3, trainTokens, trainH)
	disp := newTensor(pairs, trainH)
	combined := newTensor(trainTokens, trainH)
	moved := 2 * float64(pairs) * trainH * 4 // read + write, float32
	// Bytes per nanosecond is GB/s.
	out["kernels.gather_gb_s"] = moved / probeNs(probeBudget, func(int) { gatherInto(disp, tokens, ids) })
	out["kernels.scatter_combine_gb_s"] = moved / probeNs(probeBudget, func(int) { scatterCombineInto(combined, disp, ids, weights) })
	segs := []int{pairs / 2, pairs / 2}
	ws := []*tensorT{w1, randn(seed+4, trainH, trainF)}
	segOut := newTensor(pairs, trainF)
	out["kernels.seq_gemm_gflops"] = 2 * float64(pairs) * trainH * trainF /
		probeNs(probeBudget, func(int) { sequentialGEMMInto(segOut, disp, segs, ws) })
	out["kernels.group_by_dest_us"] = probeNs(probeBudget, func(int) { groupByDestination(ids, trainTokens) }) / 1e3
}
