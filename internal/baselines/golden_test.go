package baselines

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/parallel"
	"xmoe/internal/topology"
)

// stepBits renders every simulated float of a step result by bit pattern:
// a one-ulp drift anywhere changes the string.
func stepBits(r StepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iter=%016x tflops=%016x", math.Float64bits(r.IterSeconds), math.Float64bits(r.TFLOPsPerGPU))
	stages := make([]string, 0, len(r.LayerForward))
	for name := range r.LayerForward {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		fmt.Fprintf(&b, " %s=%016x", name, math.Float64bits(r.LayerForward[name]))
	}
	return b.String()
}

// TestSimulateStepGoldenBits pins SimulateStep's output bit for bit at one
// small point per system, plus the two X-MoE paths that read a rank's
// routing more than once per layer run (the ActCkpt replay, and TP > 1
// with SSMB slices). The strings were recorded at the commit before the
// routing → PFT → RBD-staging path was made sort-free and paid once per
// rank; host-side work on that path must not move any of them. The six
// cases share seed 11, so they share draws through the routing store, and
// the SSMB case routes half as many tokens per rank, so it also meets
// slots of the wrong length: every case runs cold, warm in table order and
// warm in reverse order against the same string.
func TestSimulateStepGoldenBits(t *testing.T) {
	m := topology.Frontier()
	cases := []struct {
		name    string
		sys     System
		tp      int
		actCkpt bool
		want    string
	}{
		{name: "xmoe", sys: XMoE, tp: 1,
			want: "iter=3ffa4f1e134b3c46 tflops=40478413033b6fc5 dense_elemwise=3f1e1bf68af42adc dense_gemm=3f55a2fea45f1712 dispatch=3f18299ca5756c7e experts=3f5c62b53b294b58 gate=3f0d7f44f4835264 rbd_comb_merge=3f18299ca5756c7f rbd_comb_s1_a2a=3f1e3632a7e4ac04 rbd_comb_s2_a2a=3f3ea94c825d29d1 rbd_comb_scatter=3ef89ddcc2d40ce5 rbd_reconstruct=3f18299ca5756c7e rbd_s1_a2a=3f1d8ec6c8fe76a8 rbd_s1_inst=3ef89ddcc2d40ce5 rbd_s2_a2a=3f3a16ca0f61bdbc rbd_s2_inst=3f1394ccabd1778a"},
		{name: "tutel", sys: Tutel, tp: 1,
			want: "iter=40010bc466b742c3 tflops=404225bef602bd88 a2a_combine=3f468b809030bba6 a2a_dispatch=3f468b809030bba5 combine=3f4181eebe4a6439 dense_elemwise=3f1e1bf68af42adc dense_gemm=3f55a2fea45f1712 dispatch=3f31d5d1946df1de experts=3f6467a7bd35bba6 gate=3f14fecb4e95c865 others=3f41d5d1946df1de"},
		{name: "deepspeed-moe", sys: DeepSpeedMoE, tp: 1,
			want: "iter=4010390b6c361c67 tflops=40331177c3ed152f a2a_combine=3f468b809030bba0 a2a_dispatch=3f468b809030bba6 combine=3f66212b63763b8f dense_elemwise=3f1e1bf68af42adc dense_gemm=3f55a2fea45f1712 dispatch=3f66212b63763b8f experts=3f6467a7bd35bba6 gate=3f67be2c40a4675f others=3f6a6cd788815d24"},
		{name: "deepspeed-ted-tp2", sys: DeepSpeedTED, tp: 2,
			want: "iter=401e6b65b270049d tflops=4024569b137c00f8 a2a_combine=3f468b809030bba0 a2a_dispatch=3f468b809030bba6 combine=3f66212b63763b8f dense_elemwise=3f1e1bf68af42adc dense_gemm=3f4646a67699c7da dispatch=3f66212b63763b8f experts=3f6467a7bd35bba6 gate=3f67be2c40a4675f others=3f6a6cd788815d24 tp_allreduce=3f079027188a72e0"},
		{name: "xmoe-actckpt", sys: XMoE, tp: 1, actCkpt: true,
			want: "iter=4001684c28499a82 tflops=4041c5482db58ba9 dense_elemwise=3f1e1bf68af42adc dense_gemm=3f55a2fea45f1712 dispatch=3f18299ca5756c7e experts=3f5c62b53b294b58 gate=3f0d7f44f4835264 rbd_comb_merge=3f18299ca5756c7f rbd_comb_s1_a2a=3f1e3632a7e4ac04 rbd_comb_s2_a2a=3f3ea94c825d29d1 rbd_comb_scatter=3ef89ddcc2d40ce5 rbd_reconstruct=3f18299ca5756c7e rbd_s1_a2a=3f1d8ec6c8fe76a8 rbd_s1_inst=3ef89ddcc2d40ce5 rbd_s2_a2a=3f3a16ca0f61bdbc rbd_s2_inst=3f1394ccabd1778a"},
		{name: "xmoe-tp2-ssmb", sys: XMoE, tp: 2,
			want: "iter=3fff1e25032efcb6 tflops=4043e1c72b27f1ad dense_elemwise=3f1e1bf68af42adc dense_gemm=3f4646a67699c7da dispatch=3f09b665320ea0b4 experts=3f502b5a301b5707 gate=3f0a6b865cfba17f rbd_comb_merge=3f09b665320ea0b2 rbd_comb_s1_a2a=3f10f52f6e1bec94 rbd_comb_s2_a2a=3f302cb497707008 rbd_comb_scatter=3eeee8799f1845ff rbd_reconstruct=3f09b665320ea0b2 rbd_s1_a2a=3f109ae3a37ba750 rbd_s1_inst=3eeee8799f1845ff rbd_s2_a2a=3f2b34e3cc564838 rbd_s2_inst=3f052195386aabbe ssmb_allgather=3ef79027188a7300 tp_allreduce=3f079027188a72e0"},
	}
	check := func(t *testing.T, i int) {
		tc := cases[i]
		cfg := For(tc.sys, m)
		r := SimulateStep(cfg, goldenSpec(cfg, tc.tp, tc.actCkpt))
		if r.Err != nil || r.OOM {
			t.Fatalf("step failed: %+v", r)
		}
		if r.MicroSteps < 2 {
			t.Fatalf("MicroSteps = %d: the sync-free micro-steps are not priced", r.MicroSteps)
		}
		if got := stepBits(r); got != tc.want {
			t.Errorf("simulated bits moved\n got: %s\nwant: %s", got, tc.want)
		}
	}
	// Cold: every case draws its routing afresh.
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dropRoutings()
			check(t, i)
		})
	}
	// Warm, in table order and in reverse: every case reads whatever draws
	// the case before it left in the routing store.
	t.Run("warm", func(t *testing.T) {
		for i, tc := range cases {
			t.Run(tc.name, func(t *testing.T) { check(t, i) })
		}
	})
	t.Run("warm-reversed", func(t *testing.T) {
		for i, tc := range slices.Backward(cases) {
			t.Run(tc.name, func(t *testing.T) { check(t, i) })
		}
	})
}

// goldenSpec is the point every golden case runs at: the Small model on
// 16 Frontier GPUs, EP 8, ZeRO-1, seed 11, micro-batch 1.
func goldenSpec(cfg Config, tp int, actCkpt bool) RunSpec {
	m := topology.Frontier()
	return RunSpec{
		Shape: model.Small(), Machine: m, World: 16,
		Plan: parallel.Plan{World: 16, TP: tp, EP: 8, Placement: cfg.Placement,
			SSMB: cfg.SSMB, ZeROStage: 1},
		// Global batch 64 gives four micro-steps, so both the synced and
		// the sync-free micro-steps are priced: from the synced run's
		// clocks at TP = 1, by a second run at TP = 2.
		MicroBatch: 1, GlobalBatch: 64, Seed: 11, Congestion: true,
		ActCkpt: actCkpt, SkipMemCheck: true,
	}
}

// dropRoutings empties the routing store, so the next step draws every
// rank's routing afresh.
func dropRoutings() {
	lastRoutings.Lock()
	lastRoutings.store = nil
	lastRoutings.Unlock()
}
