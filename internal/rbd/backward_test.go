package rbd

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"strings"
	"sync"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestMain runs the package's tests with every lent send buffer filled with
// NaN at its last release (simrt.PoisonReleased), so a receiver that reads
// a payload after releasing it, or a buffer recycled before its last
// receiver is done with it, moves a bit the determinism checks compare.
// Every Stage-0 scratch set is poisoned at its return the same way. Tests
// leave the switch on.
func TestMain(m *testing.M) {
	simrt.PoisonReleased(true)
	os.Exit(m.Run())
}

// runFwdBwd executes a numeric RBD forward at fwdChunks and, unless
// bwdChunks is 0, the backward of its saved state at bwdChunks on every
// rank of a new cluster, allocate-fresh when disablePools is set, and
// returns the per-rank outputs and gradients.
func runFwdBwd(t *testing.T, world, s int, cfg moe.Config, fwdChunks, bwdChunks int, disablePools bool) ([]*tensor.Tensor, []moe.BackwardResult) {
	t.Helper()
	c := newCluster(world)
	c.DisablePools = disablePools
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	outs, grads := make([]*tensor.Tensor, world), make([]moe.BackwardResult, world)
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(6100 + uint64(r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		epr := cfg.NumExperts / world
		me := g.IndexOf(r.ID)
		params := &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
		for le := 0; le < epr; le++ {
			params.W1[le], params.W2[le] = expertWeights(me*epr+le, cfg.HModel, cfg.HFFN)
		}
		fwdOpts := moe.PipelineOpts{DropPolicy: moe.DropNegativeThenPosition,
			SaveForBackward: bwdChunks > 0, OverlapChunks: fwdChunks}
		res := Forward(r, d, cfg, s, x, routing, params, tensor.NewRNG(42+uint64(r.ID)), fwdOpts)
		var bwd moe.BackwardResult
		switch {
		case bwdChunks == 0:
		case res.State == nil:
			t.Error("SaveForBackward forward returned no state")
			return nil
		default:
			dOut := tensor.New(s, cfg.HModel)
			for i := range dOut.Data {
				dOut.Data[i] = float32(i%5)*0.2 - 0.4
			}
			bwd = Backward(r, d, cfg, res.State, dOut, params, moe.PipelineOpts{OverlapChunks: bwdChunks})
		}
		mu.Lock()
		outs[r.ID], grads[r.ID] = res.Output, bwd
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, grads
}

var bwdCfg = moe.Config{NumExperts: 32, TopK: 5, HModel: 10, HFFN: 6,
	CapacityFactor: 1.25, BytesPerElem: 2}

// TestRBDBackwardMatchesPFTAndPadded validates the native RBD backward
// against the numerically-verified PFT backward (and the padded backward
// already pinned to it): same inputs, routing, weights, and upstream
// gradient — dX, per-expert dW1/dW2, and the combine-weight gradients
// must agree within float tolerance. (Bitwise identity across transports
// is impossible: RBD folds each pilot group's partial sums before the
// token-level accumulation, a different fp addition order than the flat
// transports. Within RBD, chunked==blocking and pooled==fresh ARE bitwise
// — see the determinism tests below and transport's TestLayerMatrix.)
func TestRBDBackwardMatchesPFTAndPadded(t *testing.T) {
	const world, s = 16, 24
	cfg := bwdCfg

	runFlat := func(padded bool) []moe.BackwardResult {
		c := newCluster(world)
		g := c.WorldGroup()
		grads := make([]moe.BackwardResult, world)
		var mu sync.Mutex
		err := c.Run(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(6100 + uint64(r.ID))
			x := tensor.Randn(rng, 1, s, cfg.HModel)
			routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
			epr := cfg.NumExperts / world
			me := g.IndexOf(r.ID)
			params := &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
			for le := 0; le < epr; le++ {
				params.W1[le], params.W2[le] = expertWeights(me*epr+le, cfg.HModel, cfg.HFFN)
			}
			opts := moe.PipelineOpts{DropPolicy: moe.DropNegativeThenPosition, SaveForBackward: true}
			dOut := tensor.New(s, cfg.HModel)
			for i := range dOut.Data {
				dOut.Data[i] = float32(i%5)*0.2 - 0.4
			}
			var bwd moe.BackwardResult
			if padded {
				res := moe.PaddedForward(r, g, cfg, s, x, routing, params, opts)
				bwd = moe.PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, opts)
			} else {
				res := moe.PFTForward(r, g, cfg, s, x, routing, params, opts)
				bwd = moe.PFTBackward(r, g, cfg, res.State, dOut, params, opts)
			}
			mu.Lock()
			grads[r.ID] = bwd
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return grads
	}

	_, rbdGrads := runFwdBwd(t, world, s, cfg, 1, 1, false)
	for name, flat := range map[string][]moe.BackwardResult{"pft": runFlat(false), "padded": runFlat(true)} {
		for rank := range flat {
			a, b := rbdGrads[rank], flat[rank]
			if !a.DX.Equal(b.DX, 1e-3) {
				t.Fatalf("%s rank %d: RBD dX differs", name, rank)
			}
			for e := range a.DW1 {
				if !a.DW1[e].Equal(b.DW1[e], 1e-3) || !a.DW2[e].Equal(b.DW2[e], 1e-3) {
					t.Fatalf("%s rank %d expert %d: RBD weight gradients differ", name, rank, e)
				}
			}
			if name == "padded" {
				// The padded backward indexes DCombineWeights by slot
				// (e*C + c), not by PFT entry — the repo's padded-vs-PFT
				// parity test skips them for the same reason.
				continue
			}
			if len(a.DCombineWeights) != len(b.DCombineWeights) {
				t.Fatalf("%s rank %d: dWeights length %d vs %d", name, rank,
					len(a.DCombineWeights), len(b.DCombineWeights))
			}
			nonZero := 0
			for i := range a.DCombineWeights {
				if d := a.DCombineWeights[i] - b.DCombineWeights[i]; d > 1e-3 || d < -1e-3 {
					t.Fatalf("%s rank %d: dWeights[%d] %v vs %v", name, rank, i,
						a.DCombineWeights[i], b.DCombineWeights[i])
				}
				if a.DCombineWeights[i] != 0 {
					nonZero++
				}
			}
			if nonZero == 0 {
				t.Fatalf("%s rank %d: all RBD combine-weight gradients are zero", name, rank)
			}
		}
	}
}

// samePasses fails unless two runFwdBwd results are bit-identical on every
// rank: the output and, after a backward, dX, every dW1/dW2 and the
// combine-weight gradients.
func samePasses(t *testing.T, label string, wantOut, gotOut []*tensor.Tensor, want, got []moe.BackwardResult) {
	t.Helper()
	for rank := range wantOut {
		same := func(what string, a, b []float32) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s rank %d: %s has %d values, want %d", label, rank, what, len(b), len(a))
			}
			for i := range a {
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("%s rank %d: %s bit mismatch at %d: %v vs %v", label, rank, what, i, b[i], a[i])
				}
			}
		}
		same("output", wantOut[rank].Data, gotOut[rank].Data)
		w, g := want[rank], got[rank]
		if w.DX == nil {
			continue
		}
		same("dX", w.DX.Data, g.DX.Data)
		same("dCombineWeights", w.DCombineWeights, g.DCombineWeights)
		for e := range w.DW1 {
			same("dW1", w.DW1[e].Data, g.DW1[e].Data)
			same("dW2", w.DW2[e].Data, g.DW2[e].Data)
		}
	}
}

// TestChunkedForwardBitIdenticalToBlocking pins the chunked S1/C1
// exchanges of a forward without a saved state against the blocking RBD
// path bit for bit: chunking re-times the inter-node transfers but must
// not move a single row or reorder any per-row accumulation.
func TestChunkedForwardBitIdenticalToBlocking(t *testing.T) {
	const world, s = 16, 24
	wantOut, want := runFwdBwd(t, world, s, bwdCfg, 1, 0, false)
	for _, chunks := range []int{2, 3, 4, 8} {
		gotOut, got := runFwdBwd(t, world, s, bwdCfg, chunks, 0, false)
		samePasses(t, fmt.Sprintf("C=%d", chunks), wantOut, gotOut, want, got)
	}
}

// TestRBDBackwardDeterminismMatrix: chunked forward+backward outputs and
// gradients must be bit-identical to the fully blocking pass, also when a
// chunked forward feeds a blocking backward or the reverse — the saved
// state does not depend on the forward's chunk count.
func TestRBDBackwardDeterminismMatrix(t *testing.T) {
	const world, s = 16, 24
	wantOut, want := runFwdBwd(t, world, s, bwdCfg, 1, 1, false)
	for _, p := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {4, 1}, {1, 4}} {
		gotOut, got := runFwdBwd(t, world, s, bwdCfg, p[0], p[1], false)
		samePasses(t, fmt.Sprintf("fwd%d/bwd%d", p[0], p[1]), wantOut, gotOut, want, got)
	}
}

// TestRBDBackwardPooledBitIdenticalToFresh: arena-pooled execution must
// match allocate-fresh bit for bit, blocking and chunked.
func TestRBDBackwardPooledBitIdenticalToFresh(t *testing.T) {
	const world, s = 16, 24
	for _, chunks := range []int{1, 4} {
		freshOut, fresh := runFwdBwd(t, world, s, bwdCfg, chunks, chunks, true)
		pooledOut, pooled := runFwdBwd(t, world, s, bwdCfg, chunks, chunks, false)
		samePasses(t, fmt.Sprintf("pooled C=%d", chunks), freshOut, pooledOut, fresh, pooled)
	}
}

// TestRBDBackwardSymbolicStagesAndHook runs the symbolic (timing-only)
// backward: every reverse stage must appear in the trace, the backward
// must leave no leaked handles, and OnDWReady must fire exactly once —
// blocking and chunked.
func TestRBDBackwardSymbolicStagesAndHook(t *testing.T) {
	cfg := moe.Config{NumExperts: 32, TopK: 4, HModel: 64, HFFN: 32,
		CapacityFactor: 1.25, BytesPerElem: 2}
	for _, chunks := range []int{1, 4} {
		c := newCluster(16)
		g := c.WorldGroup()
		d := NewDispatcher(c, g, cfg)
		fired := make([]int, 16)
		ranks, err := c.RunCollect(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(uint64(r.ID))
			routing := moe.SyntheticRouting(rng, 64, cfg.NumExperts, cfg.TopK, 0.5)
			res := Forward(r, d, cfg, 64, nil, routing, nil, tensor.NewRNG(uint64(r.ID)),
				moe.PipelineOpts{SaveForBackward: true, OverlapChunks: chunks})
			id := r.ID
			Backward(r, d, cfg, res.State, nil, nil,
				moe.PipelineOpts{OverlapChunks: chunks, OnDWReady: func() { fired[id]++ }})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range ranks {
			for _, stage := range []string{StageBwdCScatter, StageBwdC1A2A, StageBwdCMerge,
				StageBwdC2A2A, moe.StageBwdExperts, StageBwdS2A2A, StageBwdS2Red,
				StageBwdS1A2A, StageBwdS1Scat} {
				// Async exchanges fully hidden under compute charge zero
				// uncovered time; their physical span is still recorded as
				// an overlapped event.
				if rk.Trace.Total(stage) <= 0 && rk.Trace.OverlappedTotal(stage) <= 0 {
					t.Fatalf("C=%d rank %d: backward stage %q missing from trace", chunks, rk.ID, stage)
				}
			}
			if fired[rk.ID] != 1 {
				t.Fatalf("C=%d rank %d: OnDWReady fired %d times, want exactly 1", chunks, rk.ID, fired[rk.ID])
			}
		}
	}
}

// TestRBDBackwardMirrorsForwardCommunication pins the backward wire
// volumes to the netsim per-link-class convention: each reverse exchange
// moves exactly the forward payload bytes (the weight-gradient metadata
// replaces the forward's s1Meta, which is strictly larger), so per stage
// pair the backward a2a time must track the forward within tolerance —
// and in particular the backward must NOT price as the mirrored flat
// transport (its inter-node time stays well below a flat exchange's).
func TestRBDBackwardMirrorsForwardCommunication(t *testing.T) {
	cfg := moe.Config{NumExperts: 256, TopK: 8, HModel: 2048, HFFN: 1024,
		CapacityFactor: 100, BytesPerElem: 2}
	const s, world = 512, 32
	c := newCluster(world)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(4242 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0)
		res := Forward(r, d, cfg, s, nil, routing, nil, tensor.NewRNG(1+uint64(r.ID)),
			moe.PipelineOpts{SaveForBackward: true})
		Backward(r, d, cfg, res.State, nil, nil, moe.PipelineOpts{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fwdS1, bwdS1, fwdS2, bwdS2 float64
	for _, rk := range ranks {
		fwdS1 += rk.Trace.Total(StageS1A2A) + rk.Trace.Total(StageC1A2A)
		bwdS1 += rk.Trace.Total(StageBwdC1A2A) + rk.Trace.Total(StageBwdS1A2A)
		fwdS2 += rk.Trace.Total(StageS2A2A) + rk.Trace.Total(StageC2A2A)
		bwdS2 += rk.Trace.Total(StageBwdS2A2A) + rk.Trace.Total(StageBwdC2A2A)
	}
	if math.Abs(fwdS1-bwdS1) > 0.15*fwdS1 {
		t.Fatalf("backward inter-node a2a time %.6f should mirror forward %.6f", bwdS1, fwdS1)
	}
	if math.Abs(fwdS2-bwdS2) > 0.15*fwdS2 {
		t.Fatalf("backward intra-node a2a time %.6f should mirror forward %.6f", bwdS2, fwdS2)
	}
}

// TestOptionErrorSurvivesRun: a rank body that hands Forward an option
// the transport rejects fails Cluster.Run with an error that still unwraps
// to the typed *moe.OptionError, not a bare string.
func TestOptionErrorSurvivesRun(t *testing.T) {
	c := newCluster(8)
	cfg := bwdCfg
	d := NewDispatcher(c, c.WorldGroup(), cfg)
	err := c.Run(func(r *simrt.Rank) error {
		routing := moe.SyntheticRouting(tensor.NewRNG(uint64(r.ID)), 16, cfg.NumExperts, cfg.TopK, 0.5)
		Forward(r, d, cfg, 16, nil, routing, nil, tensor.NewRNG(uint64(r.ID)), moe.PipelineOpts{CombineBytes: 4})
		return nil
	})
	var oe *moe.OptionError
	if !errors.As(err, &oe) || oe.Opt != "CombineBytes" {
		t.Fatalf("Run error %v does not unwrap to *moe.OptionError{Opt: CombineBytes}", err)
	}
	if !strings.Contains(err.Error(), "rank 0 panicked: rbd: the hierarchical combine has no element-size override") {
		t.Fatalf("Run error %q lost the rank prefix or the option's message", err)
	}
}

// TestRBDCheckOptsRejections exercises the typed rejection paths: the RBD
// backward has no combine-element override, and a backward handed dOut
// cannot consume a symbolically captured forward state.
func TestRBDCheckOptsRejections(t *testing.T) {
	var oe *moe.OptionError
	err := CheckOpts(moe.PipelineOpts{CombineBytes: 4})
	if err == nil || !errors.As(err, &oe) || oe.Opt != "CombineBytes" {
		t.Fatalf("CombineBytes: want typed *moe.OptionError, got %v", err)
	}
	if err := CheckOpts(moe.PipelineOpts{OverlapChunks: -1}); err == nil || !errors.As(err, &oe) || oe.Opt != "OverlapChunks" {
		t.Fatalf("OverlapChunks: want typed *moe.OptionError, got %v", err)
	}
	if err := CheckOpts(moe.PipelineOpts{}); err != nil {
		t.Fatalf("valid opts rejected: %v", err)
	}

	// A backward handed dOut over a symbolic capture must panic with the
	// typed message, on entry, before any collective is issued.
	c := newCluster(16)
	g := c.WorldGroup()
	cfg := bwdCfg
	d := NewDispatcher(c, g, cfg)
	err = c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(r.ID))
		routing := moe.SyntheticRouting(rng, 16, cfg.NumExperts, cfg.TopK, 0.5)
		res := Forward(r, d, cfg, 16, nil, routing, nil, tensor.NewRNG(uint64(r.ID)),
			moe.PipelineOpts{SaveForBackward: true})
		defer func() {
			p := recover()
			err, _ := p.(error)
			var oe *moe.OptionError
			if !errors.As(err, &oe) || oe.Opt != "dOut" || !strings.Contains(oe.Error(), "captured symbolically") {
				t.Errorf("rank %d: want the symbolic-capture *moe.OptionError, got %v", r.ID, p)
			}
		}()
		Backward(r, d, cfg, res.State, tensor.New(16, cfg.HModel), nil, moe.PipelineOpts{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Forward validates on entry like Backward. It used to run to
	// completion on options only the backward rejected, so the step died
	// mid-way.
	for _, bad := range []moe.PipelineOpts{{CombineBytes: 4}, {OverlapChunks: 5000}} {
		err = c.Run(func(r *simrt.Rank) error {
			defer func() {
				p := recover()
				err, _ := p.(error)
				var oe *moe.OptionError
				if !errors.As(err, &oe) || (oe.Opt != "CombineBytes" && oe.Opt != "OverlapChunks") {
					t.Errorf("rank %d: Forward(%+v) must panic with the CheckOpts *moe.OptionError, got %v", r.ID, bad, p)
				}
			}()
			routing := moe.SyntheticRouting(tensor.NewRNG(uint64(r.ID)), 16, cfg.NumExperts, cfg.TopK, 0.5)
			Forward(r, d, cfg, 16, nil, routing, nil, tensor.NewRNG(uint64(r.ID)), bad)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// binom returns C(n, k) as an exact big.Rat.
func binom(n, k int) *big.Rat {
	if k < 0 || k > n {
		return new(big.Rat)
	}
	return new(big.Rat).SetInt(new(big.Int).Binomial(int64(n), int64(k)))
}

// TestExpectedRedundancyRateExactInvariant pins the closed form against
// an exact rational-arithmetic evaluation of the hypergeometric
// expectation, in the style of netsim's integer-exact byte-convention
// tests: for each node with integer expert count c under the canonical
// placement x*nodes/E, P(hit) = 1 - C(E-c,k)/C(E,k), summed exactly with
// big.Rat — including every non-divisible E/nodes case, where the old
// fractional E/n approximation was off.
func TestExpectedRedundancyRateExactInvariant(t *testing.T) {
	for _, tc := range []struct{ e, k, nodes int }{
		{8, 3, 4}, {10, 3, 4}, {10, 4, 4}, {7, 3, 3}, {13, 5, 4},
		{64, 8, 8}, {9, 2, 5}, {11, 7, 3}, {256, 8, 32}, {17, 4, 6},
	} {
		counts := make([]int, tc.nodes)
		total := 0
		for x := 0; x < tc.e; x++ {
			counts[x*tc.nodes/tc.e]++
			total++
		}
		if total != tc.e {
			t.Fatalf("placement of %d experts over %d nodes lost experts", tc.e, tc.nodes)
		}
		expected := new(big.Rat)
		denom := binom(tc.e, tc.k)
		for _, c := range counts {
			pHit := new(big.Rat).Sub(new(big.Rat).SetInt64(1),
				new(big.Rat).Quo(binom(tc.e-c, tc.k), denom))
			expected.Add(expected, pHit)
		}
		want := new(big.Rat).Sub(new(big.Rat).SetInt64(1),
			new(big.Rat).Quo(expected, new(big.Rat).SetInt64(int64(tc.k))))
		wantF, _ := want.Float64()
		got := ExpectedRedundancyRate(tc.e, tc.k, tc.nodes)
		if math.Abs(got-wantF) > 1e-12 {
			t.Errorf("E=%d k=%d nodes=%d: ExpectedRedundancyRate %.15f, exact %.15f",
				tc.e, tc.k, tc.nodes, got, wantF)
		}
	}
}
