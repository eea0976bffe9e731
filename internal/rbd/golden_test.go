package rbd

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"xmoe/internal/golden"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// runBlockingLayer executes one fwd+bwd of the transport with
// OverlapChunks = chunks in both passes on a fresh Frontier cluster and
// adds, under row/, everything the simulation produced: the bits of
// simrt.MaxClock; hashes, ranks in ascending order, of every rank's final
// Clock and its Clock when OnDWReady fired (clocks), of every rank's full
// span list — name, start, duration, and whether the span is an
// overlapped one — in recorded order (events), and per stage name of
// every rank's Trace.Breakdown() entry (stage/<name>); peak memory; and
// (numeric only) a hash of Output, DX, DW1, DW2 and DCombineWeights
// (tensors). tutel runs the layer under Tutel's profile (vendor kernels,
// float32 combine buffers).
func runBlockingLayer(t *testing.T, got *golden.List, row, transport string, numeric bool, chunks int, tutel bool) {
	t.Helper()
	// Symbolic: four nodes, strongly skewed routing. Numeric: two nodes,
	// a layer small enough to multiply out in milliseconds.
	world, s, skew := 32, 512, 0.8
	cfg := moe.Config{NumExperts: 64, TopK: 6, HModel: 1024, HFFN: 512, CapacityFactor: 1.25, BytesPerElem: 2}
	if numeric {
		world, s, skew = 16, 24, 0.6
		cfg = bwdCfg
	}
	c := newCluster(world)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	epr := cfg.NumExperts / world
	drop := moe.DropByCapacityWeight
	if transport == "padded" {
		drop = moe.DropNegativeThenPosition
	}
	hookClock := make([]float64, world)
	tensors := make([]uint64, world)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(7300 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, skew)
		var x, dOut *tensor.Tensor
		var params *moe.ExpertParams
		if numeric {
			x = tensor.Randn(rng, 1, s, cfg.HModel)
			params = &moe.ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
			for le := 0; le < epr; le++ {
				params.W1[le], params.W2[le] = expertWeights(g.IndexOf(r.ID)*epr+le, cfg.HModel, cfg.HFFN)
			}
			dOut = tensor.New(s, cfg.HModel)
			for i := range dOut.Data {
				dOut.Data[i] = float32(i%7)*0.15 - 0.4
			}
		}
		fwd := moe.PipelineOpts{DropPolicy: drop, SaveForBackward: true, OverlapChunks: chunks}
		if tutel {
			fwd.Kernels, fwd.CombineBytes = moe.KernelsVendor, 4
		}
		bwd := fwd
		bwd.SaveForBackward = false
		bwd.OnDWReady = func() { hookClock[r.ID] = r.Clock }
		var out *tensor.Tensor
		var grads moe.BackwardResult
		switch transport {
		case "pft":
			res := moe.PFTForward(r, g, cfg, s, x, routing, params, fwd)
			out, grads = res.Output, moe.PFTBackward(r, g, cfg, res.State, dOut, params, bwd)
		case "padded":
			res := moe.PaddedForward(r, g, cfg, s, x, routing, params, fwd)
			out, grads = res.Output, moe.PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, bwd)
		case "rbd":
			res := Forward(r, d, cfg, s, x, routing, params, tensor.NewRNG(91+uint64(r.ID)), fwd)
			out, grads = res.Output, Backward(r, d, cfg, res.State, dOut, params, bwd)
		}
		if numeric {
			h := golden.NewHash()
			h.F32s(out.Data)
			h.F32s(grads.DX.Data)
			for le := range grads.DW1 {
				h.F32s(grads.DW1[le].Data)
				h.F32s(grads.DW2[le].Data)
			}
			h.F32s(grads.DCombineWeights)
			tensors[r.ID] = h.Sum()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	clocks, events, tens := golden.NewHash(), golden.NewHash(), golden.NewHash()
	stages := map[string]bool{}
	for id, r := range ranks {
		rec := r.Trace
		if ob := rec.OverlapBreakdown(); chunks <= 1 && len(ob) != 0 {
			t.Errorf("%s rank %d: OverlapChunks <= 1 recorded overlapped spans %v", transport, id, ob)
		}
		for _, ev := range rec.Events() {
			events.Str(ev.Name)
			events.F64(ev.Start)
			events.F64(ev.Dur)
			if ev.Overlap {
				events.U64(1)
			}
		}
		events.U64(uint64(id))
		for name := range rec.Breakdown() {
			stages[name] = true
		}
	}
	for _, r := range ranks {
		clocks.F64(r.Clock)
		clocks.F64(hookClock[r.ID])
	}
	got.F64(row+"/maxClock", simrt.MaxClock(ranks))
	got.U64(row+"/clocks", clocks.Sum())
	got.U64(row+"/events", events.Sum())
	got.Add(row+"/peakMem", fmt.Sprint(c.PeakMemory()))
	if numeric {
		for _, v := range tensors {
			tens.U64(v)
		}
		got.U64(row+"/tensors", tens.Sum())
	}
	// A stage a rank never charged hashes as zero there.
	for _, name := range slices.Sorted(maps.Keys(stages)) {
		h := golden.NewHash()
		for _, r := range ranks {
			h.F64(r.Trace.Breakdown()[name])
		}
		got.U64(row+"/stage/"+name, h.Sum())
	}
}

// TestBlockingGoldenBits pins OverlapChunks <= 1 of all three transports to
// the bits the deleted blocking bodies produced, and OverlapChunks = 4 of
// RBD (the c4 rows) to the bits of its deleted split-buffer overlapped
// forward: per-rank clocks, the OnDWReady instant, every recorded and every
// overlapped span (none at one chunk), every Breakdown stage, peak memory
// and (numeric) every output and gradient, in testdata/blocking.golden.
// The pft and padded c4 rows and the padded tutel row (Tutel's vendor
// kernels and float32 combine buffers) were recorded from the separate
// padded forward and backward bodies, before the padded transport ran
// through the PFT body. The c3 rows (three chunks split parts unevenly,
// which exercises the ChunkRange floors and RBD's merge buckets) were
// recorded before RBD's forward and backward ran through the moe body as
// an exchange. Each row was recorded from the code it names, before that
// code was folded away; the values are the reference now, so a mismatch is
// a model change that must be declared, not re-recorded.
func TestBlockingGoldenBits(t *testing.T) {
	var got golden.List
	for _, row := range []struct {
		transport string
		chunks    int
		onlySym   bool // no numeric row
		tutel     bool
	}{{"pft", 0, false, false}, {"padded", 0, false, false}, {"rbd", 0, false, false}, {"rbd", 4, false, false},
		{"pft", 4, false, false}, {"padded", 4, false, false}, {"padded", 0, true, true},
		{"pft", 3, false, false}, {"padded", 3, false, false}, {"rbd", 3, false, false}} {
		for _, numeric := range []bool{false, true} {
			if numeric && row.onlySym {
				continue
			}
			name := row.transport + "/symbolic"
			if numeric {
				name = row.transport + "/numeric"
			}
			if row.chunks > 1 {
				name += fmt.Sprintf("/c%d", row.chunks)
			}
			if row.tutel {
				name += "/tutel"
			}
			t.Run(name, func(t *testing.T) {
				runBlockingLayer(t, &got, name, row.transport, numeric, row.chunks, row.tutel)
			})
		}
	}
	golden.Check(t, "testdata/blocking.golden", got)
}
